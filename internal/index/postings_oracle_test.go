package index

// This file keeps the posting layout the compact one replaced — every
// position an int32, every posting's end offset into them an int32 — as
// the oracle FuzzPostingsMatchOracle holds the compact lists to.

import (
	"encoding/binary"
	"fmt"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"starts/internal/attr"
	"starts/internal/query"
	"starts/internal/text"
)

// int32List is one term's postings in the replaced layout: posting i is
// document docs[i] at positions pos[ends[i-1]:ends[i]] (from 0 for i = 0).
type int32List struct {
	docs, ends, pos []int32
}

// add appends one document's positions of the term, in token order, as
// the replaced appendDoc did: sorted should they not ascend.
func (l *int32List) add(id int32, positions []int32) {
	start := len(l.pos)
	l.docs = append(l.docs, id)
	l.pos = append(l.pos, positions...)
	if p := l.pos[start:]; !slices.IsSorted(p) {
		slices.Sort(p)
	}
	l.ends = append(l.ends, int32(len(l.pos)))
}

func (l *int32List) positions(i int) []int32 {
	a := int32(0)
	if i > 0 {
		a = l.ends[i-1]
	}
	return l.pos[a:l.ends[i]:l.ends[i]]
}

// find returns document id's positions, nil when the term is not in it.
func (l *int32List) find(id int) []int32 {
	if i, ok := slices.BinarySearch(l.docs, int32(id)); ok {
		return l.positions(i)
	}
	return nil
}

// fuzzDoc is one document of a fuzz input: its id and its tokens of the
// terms "x" and "xy", in the order a tokenizer yields them.
type fuzzDoc struct {
	id   int32
	toks []text.Token
}

// fuzzDocs reads documents off a fuzz input until it runs out. A document
// is a header byte — bits 0–1 its id's gap from the last one's less one,
// bit 2 its tokens in reverse, bit 3 each position's term from the low bit
// of its delta (else every position is "x"), bit 4 no tokens at all, and
// then nothing more of it — then a uvarint frequency, 1
// plus its value mod 600, then a uvarint delta per position while the
// input lasts (0 after): the first position is the first delta, each
// next one the delta plus one past the last, none moved past 2²⁹ by a
// delta.
func fuzzDocs(data []byte) []fuzzDoc {
	next := func() uint64 {
		v, n := binary.Uvarint(data)
		if n <= 0 {
			data = nil
			return 0
		}
		data = data[n:]
		return v
	}
	var docs []fuzzDoc
	id := int32(-1)
	for len(data) > 0 {
		h := data[0]
		data = data[1:]
		id += 1 + int32(h&3)
		if h&16 != 0 {
			docs = append(docs, fuzzDoc{id: id})
			continue
		}
		d := fuzzDoc{id: id, toks: make([]text.Token, 1+next()%600)}
		p := uint64(0)
		for k := range d.toks {
			v, term := next(), "x"
			if h&8 != 0 {
				v, term = v>>1, []string{"x", "xy"}[v&1]
			}
			if p+v >= 1<<29 {
				v = 0
			}
			if k > 0 {
				v++
			}
			p += v
			d.toks[k] = text.Token{Text: term, Pos: int(p)}
		}
		if h&4 != 0 {
			slices.Reverse(d.toks)
		}
		docs = append(docs, d)
	}
	return docs
}

// seedDoc is one document of a seed input, as fuzzDocs reads it back.
type seedDoc struct {
	header byte
	deltas []uint64
}

func seedInput(docs ...seedDoc) []byte {
	var b []byte
	for _, d := range docs {
		b = append(b, d.header)
		if d.header&16 != 0 {
			continue
		}
		b = binary.AppendUvarint(b, uint64(len(d.deltas)-1))
		for _, v := range d.deltas {
			b = binary.AppendUvarint(b, v)
		}
	}
	return b
}

// posTokenizer reads tokens written as "term@position", separated by
// spaces, in the order written: a test tokenizer that can yield any
// positions, in any order.
type posTokenizer struct{}

func (posTokenizer) ID() string { return "pos" }

func (posTokenizer) Tokenize(dst []text.Token, s string) []text.Token {
	for _, f := range strings.Fields(s) {
		term, p, _ := strings.Cut(f, "@")
		pos, _ := strconv.Atoi(p)
		dst = append(dst, text.Token{Text: term, Pos: pos})
	}
	return dst
}

// posDocs returns documents 0 to n-1 for a posTokenizer, each one's body
// the tokens body(id) gives.
func posDocs(n int, body func(id int) []text.Token) []*Document {
	docs := make([]*Document, n)
	for id := range docs {
		var b strings.Builder
		for _, tok := range body(id) {
			fmt.Fprintf(&b, "%s@%d ", tok.Text, tok.Pos)
		}
		docs[id] = &Document{Linkage: fmt.Sprintf("d%d", id), Body: b.String()}
	}
	return docs
}

// FuzzPostingsMatchOracle builds the lists of "x" and "xy" over random
// documents — frequencies 1 to 600, positions up to 2²⁹, tokens in or out
// of order, documents without tokens — as the build Build replaced did,
// its chunk runs packed by oraclePack from one chunk and from three, and
// with Build on 1, 2, 3 and 8 workers; every list must equal the
// one-chunk list, ids, frequencies, position bytes, blocks and frontier.
// It reads every posting back, through a walking and a seeking
// listCursor, termCursor positions and the oracle's matchWord, against
// the layout the lists replaced.
func FuzzPostingsMatchOracle(f *testing.F) {
	zeros := func(n int) []uint64 { return make([]uint64, n) }
	f.Add(seedInput(seedDoc{0, zeros(254)}, seedDoc{0, zeros(255)}, seedDoc{0, zeros(256)}))
	f.Add(seedInput(seedDoc{0, []uint64{0, 126, 127, 1<<14 - 2, 1<<14 - 1, 1<<21 - 2, 1<<21 - 1, 1<<28 - 2, 1<<28 - 1}}))
	var straddle []seedDoc
	for i := range 130 {
		straddle = append(straddle, seedDoc{byte(i % 4), []uint64{uint64(i % 3)}})
	}
	straddle = append(straddle, seedDoc{4 | 8, []uint64{9, 3, 4, 254, 511, 1 << 15}}, seedDoc{8, make([]uint64, 600)})
	f.Add(seedInput(straddle...))
	// Lists of one block, of one past it and of one past two, their first
	// posting saturated and alone at the top of every frontier; every
	// position's term drawn, so "xy" is shorter.
	for _, n := range []int{128, 129, 257} {
		docs := make([]seedDoc, n)
		for i := range docs {
			docs[i] = seedDoc{8, []uint64{2, uint64(i % 2)}}
		}
		docs[0].deltas = zeros(300)
		f.Add(seedInput(docs...))
	}
	// No tokens at all, and tokens out of order around empty documents.
	f.Add(seedInput(seedDoc{16, nil}, seedDoc{16 | 3, nil}))
	f.Add(seedInput(seedDoc{4 | 8, []uint64{5, 1, 8, 0, 130}}, seedDoc{16, nil}, seedDoc{4, []uint64{7, 7, 300, 2}}))
	// What every input shares: the analyzers and the two queries read back
	// through matchWord, each with the oracle's terms it matches.
	a := text.NewAnalyzer()
	posA := text.NewAnalyzer()
	posA.Tokenizer = posTokenizer{}
	terms := []string{"x", "xy"}
	type wordQuery struct {
		word  string
		term  query.Term
		terms []string
	}
	var queries []wordQuery
	for _, q := range []struct {
		src, word string
		terms     []string
	}{
		{`(body-of-text "xy")`, "xy", terms[1:]},
		{`(body-of-text right-truncation "x")`, "x", terms},
	} {
		qt, _, err := query.ScanTerm(q.src)
		if err != nil {
			f.Fatal(err)
		}
		queries = append(queries, wordQuery{q.word, qt, q.terms})
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		docs := fuzzDocs(data)
		if len(docs) == 0 {
			return
		}
		oracle := map[string]*int32List{"x": {}, "xy": {}}
		lens := make([]int32, docs[len(docs)-1].id+1)
		toks := make([][]text.Token, len(lens))
		byTerm := map[string][]int32{}
		for _, d := range docs {
			lens[d.id], toks[d.id] = int32(len(d.toks)), d.toks
			clear(byTerm)
			for _, tok := range d.toks {
				byTerm[tok.Text] = append(byTerm[tok.Text], int32(tok.Pos))
			}
			for _, term := range terms {
				if p := byTerm[term]; p != nil {
					oracle[term].add(d.id, p)
				}
			}
		}
		// Each query's matches by document, once for every index read back.
		wants := make([]map[int][]int32, len(queries))
		for qi, q := range queries {
			wants[qi] = map[int][]int32{}
			for _, term := range q.terms {
				for i, id := range oracle[term].docs {
					wants[qi][int(id)] = mergePositions(wants[qi][int(id)], oracle[term].positions(i))
				}
			}
		}
		// The replaced build's analysis and pack, the documents in chunks
		// of size.
		var dp docPostings
		build := func(size int) *fieldIndex {
			byTerm := map[string][]*arena{}
			for lo := 0; lo < len(docs); lo += size {
				lists := runs{}
				for _, d := range docs[lo:min(lo+size, len(docs))] {
					dp.add(d.id, d.toks, lists.arena)
				}
				for term, r := range lists {
					byTerm[term] = append(byTerm[term], r)
				}
			}
			fi := newFieldIndex(a, len(byTerm))
			if err := fi.oraclePack(byTerm, lens); err != nil {
				t.Fatal(err)
			}
			return fi
		}
		built := map[string]*fieldIndex{"one chunk": build(len(docs)), "three chunks": build(len(docs)/3 + 1)}
		collection := posDocs(len(lens), func(id int) []text.Token { return toks[id] })
		for _, workers := range []int{1, 2, 3, 8} {
			ix, err := Build(posA, collection, workers)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(ix.counts, lens) {
				t.Fatalf("Build on %d workers: token counts %v, want %v", workers, ix.counts, lens)
			}
			fi := ix.fields[attr.FieldBodyOfText]
			if fi == nil {
				fi = newFieldIndex(posA, 0) // no document has a token
			}
			built[fmt.Sprintf("Build on %d workers", workers)] = fi
		}
		for name, fi := range built {
			// An index of the one field, for matchWord to read it through.
			ix := &Index{analyzer: a, fields: map[attr.Field]*fieldIndex{attr.FieldBodyOfText: fi}}
			for _, term := range terms {
				pl, _ := fi.lookup(term)
				one, _ := built["one chunk"].lookup(term)
				if pl.numDocs() > 0 && !reflect.DeepEqual(flatten(pl), flatten(one)) {
					t.Fatalf("%s: %q differs from the one-chunk list", name, term)
				}
				checkAgainst(t, name+" "+term, &pl, oracle[term])
			}
			checkMerged(t, name, fi, wants[1])
			for qi, q := range queries {
				got, want := ix.matchWord(fi, q.word, q.term, LookupOptions{}), wants[qi]
				if len(got) != len(want) {
					t.Fatalf("%s: %s matches %d documents, want %d", name, q.word, len(got), len(want))
				}
				for id, info := range got {
					if info.Freq != len(want[id]) || !slices.Equal(info.Positions, want[id]) {
						t.Fatalf("%s: %s: doc %d freq %d positions %v, want %v", name, q.word, id, info.Freq, info.Positions, want[id])
					}
				}
			}
		}
	})
}

// checkAgainst reads one list back through a cursor walking every posting
// and through one seeking to every third document, against the oracle.
func checkAgainst(t *testing.T, what string, pl *postingList, want *int32List) {
	t.Helper()
	if pl.numDocs() != len(want.docs) {
		t.Fatalf("%s: %d postings, want %d", what, pl.numDocs(), len(want.docs))
	}
	if len(want.docs) == 0 {
		return
	}
	i := 0
	for c := newListCursor(pl); !c.done(); c.next() {
		wp := want.positions(i)
		if c.doc() != int(want.docs[i]) || c.freq() != len(wp) || pl.freq(i) != len(wp) || !slices.Equal(c.positions(), wp) {
			t.Fatalf("%s: posting %d: doc %d freq %d/%d, want doc %d freq %d at %v",
				what, i, c.doc(), c.freq(), pl.freq(i), want.docs[i], len(wp), wp)
		}
		i++
	}
	c := newListCursor(pl)
	for k := 0; k < len(want.docs); k += 3 {
		c.seek(int(want.docs[k]))
		wp := want.positions(k)
		// Positions first on odd steps, the frequency first on even: each
		// reads where the other left the decoder.
		if k%2 == 1 && !slices.Equal(c.positions(), wp) {
			t.Fatalf("%s: seek to posting %d (doc %d): positions %v, want %v", what, k, want.docs[k], c.positions(), wp)
		}
		if c.freq() != len(wp) || !slices.Equal(c.positions(), wp) {
			t.Fatalf("%s: seek to posting %d (doc %d): freq %d positions %v, want %v", what, k, want.docs[k], c.freq(), c.positions(), wp)
		}
	}
}

// checkMerged walks the two lists as one word's expansions, a termCursor,
// against want, the oracle's positions of both merged by document.
func checkMerged(t *testing.T, what string, fi *fieldIndex, want map[int][]int32) {
	t.Helper()
	var pls []postingList
	for _, term := range []string{"x", "xy"} {
		if pl, ok := fi.lookup(term); ok {
			pls = append(pls, pl)
		}
	}
	tc := &new(Scratch).termCursors(pls)[0]
	for range want {
		if tc.cur == maxDocID || tc.freqAt() != len(want[tc.cur]) || !slices.Equal(tc.positions(), want[tc.cur]) {
			t.Fatalf("%s: term cursor at doc %d (freq %d), want %v there", what, tc.cur, tc.freqAt(), want[tc.cur])
		}
		tc.advance()
	}
	if tc.cur != maxDocID {
		t.Fatalf("%s: term cursor reads doc %d past the last", what, tc.cur)
	}
}

// arenaBytes copies an arena's arrays through their full capacity: an
// append through a view must not write past a list's length either.
func arenaBytes(a *arena) []any {
	return []any{
		slices.Clone(a.docs[:cap(a.docs)]), slices.Clone(a.freqs[:cap(a.freqs)]), slices.Clone(a.pos[:cap(a.pos)]),
		slices.Clone(a.blocks[:cap(a.blocks)]), slices.Clone(a.fronts[:cap(a.fronts)]),
	}
}
