package query

import (
	"fmt"
	"strconv"
	"strings"

	"starts/internal/attr"
	"starts/internal/lang"
)

// ParseFilter parses a Basic-1 filter expression such as
//
//	((author "Ullman") and (title stem "databases"))
//
// An empty input yields a nil expression (a query need not contain a
// filter expression).
func ParseFilter(src string) (Expr, error) {
	expr, err := parseExprString(src)
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

// ParseRanking parses a Basic-1 ranking expression such as
//
//	list((body-of-text "distributed") (body-of-text "databases"))
//
// An empty input yields a nil expression.
func ParseRanking(src string) (Expr, error) {
	expr, err := parseExprString(src)
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

// ScanTerm reads one atomic term from the front of src and returns it with
// the unconsumed remainder. Query-result TermStats lines lead with a term
// in exactly this syntax: (body-of-text "distributed") 10 0.31 190.
func ScanTerm(src string) (Term, string, error) {
	p := &parser{src: src}
	e, err := p.parseExpr()
	if err != nil {
		return Term{}, "", err
	}
	te, ok := e.(*TermExpr)
	if !ok {
		return Term{}, "", fmt.Errorf("query: expected a term, found %s", e)
	}
	return te.Term, p.rest(), nil
}

func parseExprString(src string) (Expr, error) {
	p := &parser{src: src}
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

// maxNesting bounds how deep expressions may nest. The parser recurses
// once per level and so does everything that later walks the tree, while
// expressions arrive off the wire: without a bound a few megabytes of
// '(' overflow the goroutine stack, which ends the process. The paper's
// Examples 1–12 nest at most three deep.
const maxNesting = 128

type parser struct {
	src   string
	pos   int
	depth int // parseExpr calls in progress
}

func (p *parser) rest() string { return p.src[p.pos:] }
func (p *parser) eof() bool    { return p.pos >= len(p.src) }

func (p *parser) skipSpace() {
	for !p.eof() {
		switch p.src[p.pos] {
		case ' ', '\t', '\n', '\r':
			p.pos++
		default:
			return
		}
	}
}

func (p *parser) peek() byte {
	if p.eof() {
		return 0
	}
	return p.src[p.pos]
}

func (p *parser) expect(c byte) error {
	p.skipSpace()
	if p.peek() != c {
		return fmt.Errorf("expected %q at offset %d, found %q", c, p.pos, clip(p.rest()))
	}
	p.pos++
	return nil
}

// parseExpr parses one complete expression: a bare term, a parenthesized
// term, a binary combination, a proximity expression, or a list.
func (p *parser) parseExpr() (Expr, error) {
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
func (p *parser) parseParen() (Expr, error) {
	if err := p.expect('('); err != nil {
		return nil, err
	}
	p.skipSpace()
	c := p.peek()
	if isTermLead(c) && !strings.EqualFold(p.peekWord(), "list") {
		// (field mod* lstring weight?) — an atomic term.
		return p.parseTermBody()
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
func (p *parser) parseCombination(left Expr) (Expr, error) {
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

func (p *parser) finishBin(op Op, left Expr) (Expr, error) {
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
func (p *parser) finishProx(left Expr) (Expr, error) {
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
func (p *parser) parseList() (Expr, error) {
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

// parseTermBody parses `field? mod* lstring weight? )` with the opening
// paren already consumed.
func (p *parser) parseTermBody() (Expr, error) {
	var t Term
	fieldSet := false
	modSeen := false
	for {
		p.skipSpace()
		c := p.peek()
		if c == '"' || c == '`' || c == '[' {
			break
		}
		word := p.scanWordOrSymbol()
		if word == "" {
			return nil, fmt.Errorf("expected field, modifier or string at offset %d, found %q", p.pos, clip(p.rest()))
		}
		if _, isMod := attr.LookupModifier(word); isMod {
			t.Mods = append(t.Mods, attr.Modifier(strings.ToLower(word)))
			modSeen = true
			continue
		}
		if fieldSet {
			return nil, fmt.Errorf("term has two fields: %q and %q", t.Field, word)
		}
		if modSeen {
			return nil, fmt.Errorf("field %q must precede modifiers", word)
		}
		t.Field = attr.Normalize(attr.Field(word))
		fieldSet = true
	}
	ls, err := p.scanLString()
	if err != nil {
		return nil, err
	}
	t.Value = ls
	p.skipSpace()
	if isDigit(p.peek()) {
		w, err := p.scanNumber()
		if err != nil {
			return nil, err
		}
		t.Weight = w
	}
	if err := p.expect(')'); err != nil {
		return nil, err
	}
	return &TermExpr{t}, nil
}

func (p *parser) scanLString() (lang.LString, error) {
	ls, rest, err := lang.ScanLString(p.rest())
	if err != nil {
		return lang.LString{}, fmt.Errorf("at offset %d: %w", p.pos, err)
	}
	p.pos = len(p.src) - len(rest)
	return ls, nil
}

// scanWord reads a letter-initiated word; '-' is allowed inside so that
// "and-not", "body-of-text" and "date-last-modified" are single words.
func (p *parser) scanWord() string {
	p.skipSpace()
	start := p.pos
	for !p.eof() {
		c := p.src[p.pos]
		if isWordByte(c) || (p.pos > start && c == '-') {
			p.pos++
			continue
		}
		break
	}
	return p.src[start:p.pos]
}

// peekWord returns the word at the cursor without consuming it.
func (p *parser) peekWord() string {
	save := p.pos
	w := p.scanWord()
	p.pos = save
	return w
}

// scanWordOrSymbol reads either a word or a comparison symbol (<, <=, =,
// >=, >, !=).
func (p *parser) scanWordOrSymbol() string {
	p.skipSpace()
	c := p.peek()
	if c == '<' || c == '>' || c == '=' || c == '!' {
		start := p.pos
		p.pos++
		if !p.eof() && p.src[p.pos] == '=' {
			p.pos++
		}
		return p.src[start:p.pos]
	}
	return p.scanWord()
}

func (p *parser) scanNumber() (float64, error) {
	p.skipSpace()
	start := p.pos
	for !p.eof() {
		c := p.src[p.pos]
		if isDigit(c) || c == '.' {
			p.pos++
			continue
		}
		break
	}
	if start == p.pos {
		return 0, fmt.Errorf("expected number at offset %d", p.pos)
	}
	// The printer writes a weight below 1e-4 as 1e-05.
	if exp := p.rest(); len(exp) > 2 && (exp[0] == 'e' || exp[0] == 'E') && (exp[1] == '-' || exp[1] == '+') && isDigit(exp[2]) {
		p.pos += 2
		for !p.eof() && isDigit(p.src[p.pos]) {
			p.pos++
		}
	}
	f, err := strconv.ParseFloat(p.src[start:p.pos], 64)
	if err != nil {
		return 0, fmt.Errorf("invalid number %q at offset %d", p.src[start:p.pos], start)
	}
	return f, nil
}

func (p *parser) scanInt() (int, error) {
	f, err := p.scanNumber()
	if err != nil {
		return 0, err
	}
	n := int(f)
	if float64(n) != f {
		return 0, fmt.Errorf("expected integer, found %g", f)
	}
	return n, nil
}

// isTermLead reports whether c can begin the field/modifier part of an
// atomic term.
func isTermLead(c byte) bool {
	return isWordStart(c) || c == '<' || c == '>' || c == '=' || c == '!'
}

func isWordStart(c byte) bool {
	return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isWordByte(c byte) bool {
	return isWordStart(c) || (c >= '0' && c <= '9') || c == '/' || c == '_'
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

func clip(s string) string {
	if len(s) > 40 {
		return s[:40] + "..."
	}
	return s
}
