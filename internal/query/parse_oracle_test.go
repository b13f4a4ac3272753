package query

import (
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"starts/internal/attr"
	"starts/internal/lang"
	"starts/internal/soif"
)

// The parser as it was, before it carved its nodes from slabs: every
// node its own allocation, every list's items grown by append. It shares
// the scanning methods (parseTermBody, scanWord, ...) with the parser
// through oracleParser's embedded one, and is the oracle of
// FuzzParseMatchesOracle.
type oracleParser struct{ parser }

func oracleParseFilter(src string) (Expr, error) {
	expr, err := oracleParseExprString(src)
	if err != nil {
		return nil, fmt.Errorf("query: parsing filter expression: %w", err)
	}
	if expr == nil {
		return nil, nil
	}
	if err := ValidateFilter(expr); err != nil {
		return nil, err
	}
	return expr, nil
}

func oracleParseRanking(src string) (Expr, error) {
	expr, err := oracleParseExprString(src)
	if err != nil {
		return nil, fmt.Errorf("query: parsing ranking expression: %w", err)
	}
	if expr == nil {
		return nil, nil
	}
	if err := ValidateRanking(expr); err != nil {
		return nil, err
	}
	return expr, nil
}

func oracleParseExprString(src string) (Expr, error) {
	p := &oracleParser{parser{src: src}}
	p.skipSpace()
	if p.eof() {
		return nil, nil
	}
	expr, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	p.skipSpace()
	if !p.eof() {
		return nil, fmt.Errorf("trailing input %q at offset %d", clip(p.rest()), p.pos)
	}
	return expr, nil
}

// parseExpr parses one complete expression: a bare term, a parenthesized
// term, a binary combination, a proximity expression, or a list.
func (p *oracleParser) parseExpr() (Expr, error) {
	if p.depth == maxNesting {
		return nil, fmt.Errorf("expression nested deeper than %d levels at offset %d", maxNesting, p.pos)
	}
	p.depth++
	defer func() { p.depth-- }()
	p.skipSpace()
	switch c := p.peek(); {
	case c == '"' || c == '`' || c == '[':
		// Bare l-string term.
		ls, err := p.scanLString()
		if err != nil {
			return nil, err
		}
		return &TermExpr{Term{Value: ls}}, nil
	case c == '(':
		return p.parseParen()
	case isWordStart(c):
		word := p.peekWord()
		if strings.EqualFold(word, "list") {
			return p.parseList()
		}
		return nil, fmt.Errorf("unexpected word %q at offset %d (expected a term, '(' or list)", word, p.pos)
	default:
		return nil, fmt.Errorf("unexpected character %q at offset %d", c, p.pos)
	}
}

// parseParen handles everything that starts with '(': an atomic term
// (possibly with field, modifiers and weight), a parenthesized expression,
// or a binary/proximity combination.
func (p *oracleParser) parseParen() (Expr, error) {
	if err := p.expect('('); err != nil {
		return nil, err
	}
	p.skipSpace()
	c := p.peek()
	if isTermLead(c) && !strings.EqualFold(p.peekWord(), "list") {
		// (field mod* lstring weight?) — an atomic term.
		t, err := p.parseTermBody()
		if err != nil {
			return nil, err
		}
		return &TermExpr{t}, nil
	}
	// Otherwise the paren wraps one or two sub-expressions.
	left, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	p.skipSpace()
	// A bare term in parens may carry a weight: ("distributed" 0.7).
	if t, ok := left.(*TermExpr); ok && isDigit(p.peek()) {
		w, err := p.scanNumber()
		if err != nil {
			return nil, err
		}
		t.Weight = w
		p.skipSpace()
	}
	if p.peek() == ')' {
		p.pos++
		return left, nil
	}
	return p.parseCombination(left)
}

// parseCombination parses `op right )` after a left operand.
func (p *oracleParser) parseCombination(left Expr) (Expr, error) {
	p.skipSpace()
	word := p.scanWord()
	switch {
	case strings.EqualFold(word, "and"):
		// Could be "and-not": the scanner keeps '-' inside words, so
		// "and-not" arrives as one word already.
		return p.finishBin(OpAnd, left)
	case strings.EqualFold(word, "or"):
		return p.finishBin(OpOr, left)
	case strings.EqualFold(word, "and-not"):
		return p.finishBin(OpAndNot, left)
	case strings.EqualFold(word, "prox"):
		return p.finishProx(left)
	case word == "":
		return nil, fmt.Errorf("expected operator at offset %d, found %q", p.pos, clip(p.rest()))
	default:
		return nil, fmt.Errorf("unknown operator %q at offset %d", word, p.pos)
	}
}

func (p *oracleParser) finishBin(op Op, left Expr) (Expr, error) {
	right, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expect(')'); err != nil {
		return nil, err
	}
	return &Bin{Op: op, L: left, R: right}, nil
}

// finishProx parses `[dist,ordered] right )` after `left prox`.
func (p *oracleParser) finishProx(left Expr) (Expr, error) {
	lt, ok := left.(*TermExpr)
	if !ok {
		return nil, fmt.Errorf("prox left operand must be a term, found %s", left)
	}
	if err := p.expect('['); err != nil {
		return nil, err
	}
	p.skipSpace()
	dist, err := p.scanInt()
	if err != nil {
		return nil, fmt.Errorf("prox distance: %w", err)
	}
	if dist < 0 {
		return nil, fmt.Errorf("prox distance %d is negative", dist)
	}
	if err := p.expect(','); err != nil {
		return nil, err
	}
	p.skipSpace()
	var ordered bool
	switch flag := p.scanWord(); strings.ToUpper(flag) {
	case "T":
		ordered = true
	case "F":
		ordered = false
	default:
		return nil, fmt.Errorf("prox order flag must be T or F, found %q", flag)
	}
	if err := p.expect(']'); err != nil {
		return nil, err
	}
	right, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	rt, ok := right.(*TermExpr)
	if !ok {
		return nil, fmt.Errorf("prox right operand must be a term, found %s", right)
	}
	if err := p.expect(')'); err != nil {
		return nil, err
	}
	return &Prox{L: lt, R: rt, Dist: dist, Ordered: ordered}, nil
}

// parseList parses `list(item item ...)`.
func (p *oracleParser) parseList() (Expr, error) {
	p.scanWord() // consume "list"
	if err := p.expect('('); err != nil {
		return nil, err
	}
	l := &List{}
	for {
		p.skipSpace()
		if p.peek() == ')' {
			p.pos++
			if len(l.Items) == 0 {
				return nil, fmt.Errorf("empty list() at offset %d", p.pos)
			}
			return l, nil
		}
		if p.eof() {
			return nil, fmt.Errorf("unterminated list()")
		}
		item, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		l.Items = append(l.Items, item)
	}
}

// oracleFromSOIF is FromSOIF as it was: New's defaults, then the
// AnswerFields and SortByFields values split by strings.Fields, over the
// oracle parser. It is the oracle of FuzzFromSOIFMatchesOracle.
func oracleFromSOIF(o *soif.Object) (*Query, error) {
	if !strings.EqualFold(o.Type, SQueryType) {
		return nil, fmt.Errorf("query: expected @%s object, found @%s", SQueryType, o.Type)
	}
	q := &Query{
		DropStopWords:   true,
		DefaultAttrSet:  attr.SetBasic1,
		DefaultLanguage: lang.EnglishUS,
		AnswerFields:    []attr.Field{attr.FieldTitle, attr.FieldLinkage},
		SortBy:          []SortKey{{Field: ScoreSortField}},
		MaxResults:      DefaultMaxResults,
	}
	var err error
	if v, ok := o.Get("FilterExpression"); ok {
		if q.Filter, err = oracleParseFilter(v); err != nil {
			return nil, err
		}
	}
	if v, ok := o.Get("RankingExpression"); ok {
		if q.Ranking, err = oracleParseRanking(v); err != nil {
			return nil, err
		}
	}
	if v, ok := o.Get("DropStopWords"); ok {
		if q.DropStopWords, err = ParseTF(v); err != nil {
			return nil, fmt.Errorf("query: DropStopWords: %w", err)
		}
	}
	if v, ok := o.Get("DefaultAttributeSet"); ok {
		q.DefaultAttrSet = attr.SetName(strings.ToLower(v))
	}
	if v, ok := o.Get("DefaultLanguage"); ok {
		if q.DefaultLanguage, err = lang.ParseTag(v); err != nil {
			return nil, fmt.Errorf("query: DefaultLanguage: %w", err)
		}
	}
	if v, ok := o.Get("Sources"); ok {
		q.Sources = strings.Fields(v)
	}
	if v, ok := o.Get("AnswerFields"); ok {
		names := strings.Fields(v)
		q.AnswerFields = make([]attr.Field, 0, len(names))
		for _, name := range names {
			q.AnswerFields = append(q.AnswerFields, attr.Normalize(attr.Field(name)))
		}
	}
	if v, ok := o.Get("SortByFields"); ok {
		fields := strings.Fields(v)
		if len(fields)%2 != 0 {
			return nil, fmt.Errorf("query: SortByFields %q must be field/direction pairs", v)
		}
		q.SortBy = make([]SortKey, 0, len(fields)/2)
		for i := 0; i < len(fields); i += 2 {
			k := SortKey{Field: attr.Normalize(attr.Field(fields[i]))}
			switch strings.ToLower(fields[i+1]) {
			case "a", "asc", "ascending":
				k.Ascending = true
			case "d", "desc", "descending":
			default:
				return nil, fmt.Errorf("query: sort direction %q must be a or d", fields[i+1])
			}
			q.SortBy = append(q.SortBy, k)
		}
	}
	if v, ok := o.Get("MinDocumentScore"); ok {
		if q.MinScore, err = strconv.ParseFloat(strings.TrimSpace(v), 64); err != nil {
			return nil, fmt.Errorf("query: MinDocumentScore %q: %w", v, err)
		}
	}
	if v, ok := o.Get("MaxNumberDocuments"); ok {
		if q.MaxResults, err = strconv.Atoi(strings.TrimSpace(v)); err != nil {
			return nil, fmt.Errorf("query: MaxNumberDocuments %q: %w", v, err)
		}
	}
	if err := q.Validate(); err != nil {
		return nil, err
	}
	return q, nil
}

// requireSame fails unless both sides returned the same value, or the
// same error text.
func requireSame[T any](t *testing.T, what string, got, want T, gerr, werr error) {
	t.Helper()
	if (gerr == nil) != (werr == nil) || gerr != nil && gerr.Error() != werr.Error() {
		t.Fatalf("%s: error %v, oracle %v", what, gerr, werr)
	}
	if gerr == nil && !reflect.DeepEqual(got, want) {
		t.Fatalf("%s:\n%#v\noracle\n%#v", what, got, want)
	}
}

// FuzzParseMatchesOracle: whatever the source, both parsers, as filter and
// as ranking, return the same tree or the same error.
func FuzzParseMatchesOracle(f *testing.F) {
	for _, src := range paperExpressions {
		f.Add(src)
	}
	f.Add(`list("a" "b" "c" "d" "e" list("f" ("g" 0.5)) (("h" and "i") or "j"))`)
	f.Add(`(("a" and "b") and-not (("c" prox[2,T] "d") or (title "e")))`)
	f.Add(strings.Repeat("list(", 40) + `"x"` + strings.Repeat(")", 40))
	f.Fuzz(func(t *testing.T, src string) {
		got, gerr := ParseFilter(src)
		want, werr := oracleParseFilter(src)
		requireSame(t, "filter "+strconv.Quote(src), got, want, gerr, werr)
		got, gerr = ParseRanking(src)
		want, werr = oracleParseRanking(src)
		requireSame(t, "ranking "+strconv.Quote(src), got, want, gerr, werr)
	})
}

// FuzzFromSOIFMatchesOracle: whatever the @SQuery object, FromSOIF and
// the decoder it replaced return the same query or the same error.
func FuzzFromSOIFMatchesOracle(f *testing.F) {
	for _, src := range paperExpressions {
		f.Add(src, "title author", "score d", "en-US")
	}
	f.Add(`list("a" "b")`, "", "", "fr")
	f.Add(`(title "x")`, " Title\tdate/time-last-modified  author ", "date-last-modified A title Desc", "EN-gb")
	f.Add(`"x"`, "a b c d e f", "a d b", "en-")
	f.Add(`"x"`, "title", "a x b d", "-US")
	f.Fuzz(func(t *testing.T, expr, fields, sortBy, language string) {
		for _, name := range []string{"FilterExpression", "RankingExpression"} {
			o := soif.New(SQueryType).Add("Version", Version).Add(name, expr)
			if fields != "-" {
				o.Add("AnswerFields", fields)
			}
			if sortBy != "-" {
				o.Add("SortByFields", sortBy)
			}
			if language != "-" {
				o.Add("DefaultLanguage", language)
			}
			got, gerr := FromSOIF(o)
			want, werr := oracleFromSOIF(o)
			requireSame(t, o.String(), got, want, gerr, werr)
		}
	})
}
