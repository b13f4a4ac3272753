// Package qcache is the metasearcher's query-result cache: a sharded
// LRU+TTL store keyed on a canonical query fingerprint, with
// stale-while-revalidate (an expired entry is served immediately while
// one background refresh per key runs) and a bounded admission gate that
// sheds load with a typed error instead of queueing without limit. Each
// miss runs its own fill; identical concurrent ones share wire calls in
// the dispatcher.
//
// Under real traffic query distributions are heavily skewed; a
// metasearcher that re-fans-out to every source for every repeated query
// wastes the scarce resource the STARTS paper centers on — source round
// trips. qcache shields the sources the way ZBroker caches at the broker.
//
// It caches merged answers only (core.Search is its one user) and wraps
// no Conn; the server uses just its admission gate. qcache imports only
// query, attr and obs, so core and the server both import it and the
// dependency keeps pointing outward.
package qcache

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"sort"
	"strconv"
	"strings"
	"sync"

	"starts/internal/attr"
	"starts/internal/query"
)

// Keyer derives cache keys from queries. Scope namespaces the key space:
// the metasearcher mixes in everything outside the query that shapes the
// answer (selector, merger, source cap, registered source set). Two
// Keyers with distinct scopes never collide.
type Keyer struct {
	Scope string
}

// Key returns the canonical fingerprint of q under the keyer's scope:
// a hex digest of the scope, a zero byte and Canonical(q).
func (k Keyer) Key(q *query.Query) string {
	p := printers.Get().(*printer)
	p.buf = append(append(p.buf[:0], k.Scope...), 0)
	p.query(q)
	sum := sha256.Sum256(p.buf)
	printers.Put(p)
	var key [32]byte
	hex.Encode(key[:], sum[:16])
	return string(key[:])
}

// Canonical renders a query in a canonical form in which semantically
// identical queries print identically:
//
//   - commutative and/or filter and ranking operands are flattened across
//     associativity and sorted, so `a and b` and `b and a` (and
//     `(a and b) and c` vs `a and (b and c)`) share a fingerprint —
//     and-not and prox stay order-sensitive;
//   - term fields, weights and comparison modifiers are normalized to
//     their documented defaults (unset field = any, weight 0 = 1), and
//     modifier order within a term is sorted;
//   - the Sources list is sorted (same-resource duplicate elimination is
//     set-shaped);
//   - the result specification is included with its effective defaults
//     applied, so a query relying on a default and one spelling it out
//     share an entry.
func Canonical(q *query.Query) string {
	p := printers.Get().(*printer)
	p.buf = p.buf[:0]
	p.query(q)
	s := string(p.buf)
	printers.Put(p)
	return s
}

// printer appends the canonical form to buf; nothing on the way builds a
// string of its own. Its methods call each other in a cycle, so a buffer
// on a caller's stack would escape: printers are pooled.
type printer struct {
	buf []byte
	ops []span // the operands of the and/or chains being printed, a stack
}

// span is one printed operand: buf[lo:hi].
type span struct{ lo, hi int }

var printers = sync.Pool{New: func() any { return &printer{buf: make([]byte, 0, 512)} }}

func (p *printer) str(ss ...string) {
	for _, s := range ss {
		p.buf = append(p.buf, s...)
	}
}

func (p *printer) query(q *query.Query) {
	p.str("f=")
	p.expr(q.Filter)
	p.str(";r=")
	p.expr(q.Ranking)
	p.str(";stop=", strconv.FormatBool(q.DropStopWords), ";set=", strings.ToLower(string(q.DefaultAttrSet)),
		";lang=", q.DefaultLanguage.Language)
	if q.DefaultLanguage.Language != "" && q.DefaultLanguage.Country != "" {
		p.str("-", q.DefaultLanguage.Country)
	}
	srcs := q.Sources
	if !sort.StringsAreSorted(srcs) {
		srcs = append([]string(nil), srcs...)
		sort.Strings(srcs)
	}
	p.str(";srcs=")
	for _, s := range srcs {
		p.str(s, ",")
	}
	p.endList(len(srcs), ";ans=")
	var fields [4]attr.Field
	for _, f := range q.AppendAnswerFields(fields[:0]) {
		p.str(string(f), ",")
	}
	p.endList(1, ";sort=")
	for _, k := range q.EffectiveSort() {
		if k.Ascending {
			p.str(string(k.Field), " a,")
		} else {
			p.str(string(k.Field), " d,")
		}
	}
	p.endList(1, "")
	p.buf = strconv.AppendFloat(append(p.buf, ";min="...), q.MinScore, 'g', -1, 64)
	p.buf = strconv.AppendInt(append(p.buf, ";max="...), int64(q.EffectiveMaxResults()), 10)
}

// endList closes a list of n items, each printed with a comma behind it,
// and opens what follows.
func (p *printer) endList(n int, next string) {
	if n > 0 {
		p.buf = p.buf[:len(p.buf)-1]
	}
	p.str(next)
}

// expr renders one expression tree canonically. Chains of the same
// commutative operator (and, or) are flattened and their operands sorted;
// everything else keeps its structure.
func (p *printer) expr(e query.Expr) {
	switch n := e.(type) {
	case nil:
	case *query.TermExpr:
		p.term(n.Term)
	case *query.Bin:
		p.str("(", string(n.Op), " ")
		if n.Op == query.OpAnd || n.Op == query.OpOr {
			p.sorted(n)
		} else {
			p.expr(n.L)
			p.str(" ")
			p.expr(n.R)
		}
		p.str(")")
	case *query.Prox:
		p.buf = strconv.AppendInt(append(p.buf, "(prox["...), int64(n.Dist), 10)
		p.str(",", strconv.FormatBool(n.Ordered), "] ")
		p.term(n.L.Term)
		p.str(" ")
		p.term(n.R.Term)
		p.str(")")
	case *query.List:
		p.str("list(")
		for _, it := range n.Items {
			p.expr(it)
			p.str(" ")
		}
		p.endList(len(n.Items), ")")
	default:
		// Unknown node types fall back to their printed form.
		p.str(e.String())
	}
}

// sorted prints the operands of the same-operator chain under n —
// (a and (b and c)) and ((a and b) and c) both have operands a b c — in
// byte order, one space between two. They are printed in tree order
// first; when that was not byte order, a sorted copy is built behind them
// and moved down over them.
func (p *printer) sorted(n *query.Bin) {
	start, base := len(p.buf), len(p.ops)
	p.operands(n.Op, n, base)
	ops, inOrder := p.ops[base:], true
	for i := 1; i < len(ops); i++ { // insertion sort: chains are short
		for j := i; j > 0 && bytes.Compare(p.buf[ops[j].lo:ops[j].hi], p.buf[ops[j-1].lo:ops[j-1].hi]) < 0; j-- {
			ops[j], ops[j-1], inOrder = ops[j-1], ops[j], false
		}
	}
	if !inOrder {
		unsorted := len(p.buf)
		for i, op := range ops {
			if i > 0 {
				p.str(" ")
			}
			p.buf = append(p.buf, p.buf[op.lo:op.hi]...)
		}
		p.buf = append(p.buf[:start], p.buf[unsorted:]...)
	}
	p.ops = p.ops[:base]
}

// operands prints the chain's operands in tree order and pushes their
// spans; base is where this chain's spans start.
func (p *printer) operands(op query.Op, e query.Expr, base int) {
	if b, ok := e.(*query.Bin); ok && b.Op == op {
		p.operands(op, b.L, base)
		p.operands(op, b.R, base)
		return
	}
	if len(p.ops) > base {
		p.str(" ")
	}
	lo := len(p.buf)
	p.expr(e)
	p.ops = append(p.ops, span{lo, len(p.buf)})
}

// term renders a term with defaults applied (unset field = any, weight
// 0 = 1, implicit "=" comparison) and modifiers sorted, so spelled-out
// defaults and omitted ones fingerprint identically.
func (p *printer) term(t query.Term) {
	var arr [8]string
	mods, hasCmp := arr[:0], false
	for _, m := range t.Mods {
		hasCmp = hasCmp || m.IsComparison()
		mods = append(mods, m.String())
	}
	if !hasCmp {
		mods = append(mods, attr.ModEQ.String())
	}
	sort.Strings(mods)
	p.str("(", string(t.EffectiveField()))
	for _, m := range mods {
		p.str(" ", m)
	}
	p.buf = t.Value.Append(append(p.buf, ' '))
	p.buf = strconv.AppendFloat(append(p.buf, ' '), t.EffectiveWeight(), 'g', -1, 64)
	p.str(")")
}
