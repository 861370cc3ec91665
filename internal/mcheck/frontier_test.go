package mcheck

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"

	"repro/internal/papernets"
)

// batchEntry is one (enc, budget, node) triple handed to batchBuilder.add.
type batchEntry struct {
	enc    []byte
	budget int
	node   int32
}

// Fuzz input format: a sequence of records, each
//
//	shared  one byte: prefix length taken from the previous entry's
//	        encoding (clamped to its length)
//	n       one byte: suffix length (clamped to the remaining input)
//	suffix  n bytes
//	budget  two bytes, big-endian
//	node    four bytes, big-endian, sign bit cleared
//
// A truncated trailing record keeps whatever fields it has, zeroing the
// rest. Taking prefixes from the previous entry lets the fuzzer reach
// the shared-prefix encodings real frontiers are made of.

// parseBatchEntries decodes a fuzz input into entries.
func parseBatchEntries(data []byte) []batchEntry {
	var out []batchEntry
	var prev []byte
	take := func(n int) []byte {
		n = min(n, len(data))
		b := data[:n]
		data = data[n:]
		return b
	}
	for len(data) > 0 {
		hdr := take(2)
		shared := min(int(hdr[0]), len(prev))
		n := 0
		if len(hdr) > 1 {
			n = int(hdr[1])
		}
		enc := append(append([]byte(nil), prev[:shared]...), take(n)...)
		var tail [6]byte
		copy(tail[:], take(6))
		out = append(out, batchEntry{
			enc:    enc,
			budget: int(binary.BigEndian.Uint16(tail[:2])),
			node:   int32(binary.BigEndian.Uint32(tail[2:]) &^ (1 << 31)),
		})
		prev = enc
	}
	return out
}

// formatBatchEntries is parseBatchEntries' inverse for seeding; every
// encoding must be under 256 bytes past its shared prefix.
func formatBatchEntries(entries []batchEntry) []byte {
	var out, prev []byte
	for _, e := range entries {
		shared := 0
		for shared < min(len(prev), len(e.enc), 255) && prev[shared] == e.enc[shared] {
			shared++
		}
		if len(e.enc)-shared > 255 {
			panic("formatBatchEntries: suffix over 255 bytes")
		}
		out = append(out, byte(shared), byte(len(e.enc)-shared))
		out = append(out, e.enc[shared:]...)
		out = binary.BigEndian.AppendUint16(out, uint16(e.budget))
		out = binary.BigEndian.AppendUint32(out, uint32(e.node))
		prev = e.enc
	}
	return out
}

// figure1Entries returns the first limit distinct states of Figure 1 in
// breadth-first order, as real frontier encodings with synthetic budgets
// and nodes.
func figure1Entries(t testing.TB, limit int) []batchEntry {
	root := newHeldSim(papernets.Figure1().Scenario)
	enum := newDecisionEnum(root)
	next := root.Clone()
	var enc []byte
	root.EncodeTo(&enc)
	entries := []batchEntry{{enc: enc, budget: 1}}
	seen := map[string]bool{string(enc): true}
	for i := 0; i < len(entries) && len(entries) < limit; i++ {
		cur := root.Clone()
		if err := cur.DecodeFrom(entries[i].enc); err != nil {
			t.Fatal(err)
		}
		enum.forEach(cur, 0, enumConfig{}, nil, func(d *Decision) bool {
			next.CopyFrom(cur)
			apply(next, *d)
			next.StepWithPicks(d.Picks)
			var e []byte
			next.EncodeTo(&e)
			if !seen[string(e)] && len(entries) < limit {
				seen[string(e)] = true
				entries = append(entries, batchEntry{enc: e, budget: len(entries) % 3, node: int32(len(entries))})
			}
			return true
		})
	}
	return entries
}

// checkBatchRoundTrip builds a batch from entries on bb and requires that
// seekAll and every seekBlock yield exactly those entries.
func checkBatchRoundTrip(t *testing.T, bb *batchBuilder, entries []batchEntry) {
	t.Helper()
	bb.reset()
	for _, e := range entries {
		bb.add(e.enc, e.budget, e.node)
	}
	b := &bb.batch
	if b.count != len(entries) {
		t.Fatalf("batch count %d, added %d", b.count, len(entries))
	}
	if want := (len(entries) + batchRestart - 1) / batchRestart; b.blocks() != want {
		t.Fatalf("%d restart blocks for %d entries, want %d", b.blocks(), len(entries), want)
	}
	expect := func(it *batchIter, lo, hi int, how string) {
		t.Helper()
		for i := lo; i < hi; i++ {
			if !it.next() {
				t.Fatalf("%s: ended before entry %d of [%d, %d)", how, i, lo, hi)
			}
			e := entries[i]
			if it.idx != i+1 || !bytes.Equal(it.cur, e.enc) || it.budget != e.budget || it.node != e.node {
				t.Fatalf("%s: entry %d decoded as (idx %d, %x, %d, %d), added (%x, %d, %d)",
					how, i, it.idx-1, it.cur, it.budget, it.node, e.enc, e.budget, e.node)
			}
		}
		if it.next() {
			t.Fatalf("%s: entry past [%d, %d)", how, lo, hi)
		}
	}
	var it batchIter
	it.seekAll(b)
	expect(&it, 0, len(entries), "seekAll")
	for bi := 0; bi < b.blocks(); bi++ {
		it.seekBlock(b, bi)
		expect(&it, bi*batchRestart, min((bi+1)*batchRestart, len(entries)), "seekBlock")
	}
}

// TestFrontierBatchRoundTrip: the delta-encoded batch must return every
// entry byte-identically, in insertion order, both via the sequential
// iterator and via independent per-block iterators, and a reset builder
// must not leak state between levels.
func TestFrontierBatchRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	prefix := []byte("common-prefix-most-entries-share-")
	var bb batchBuilder
	for round := 0; round < 3; round++ {
		entries := make([]batchEntry, 1+rng.Intn(200))
		for i := range entries {
			var enc []byte
			if rng.Intn(4) > 0 {
				enc = append(append([]byte(nil), prefix...), byte(i), byte(i>>8))
			} else {
				enc = make([]byte, 1+rng.Intn(50))
				rng.Read(enc)
			}
			entries[i] = batchEntry{enc: enc, budget: rng.Intn(10), node: int32(rng.Intn(1 << 20))}
		}
		checkBatchRoundTrip(t, &bb, entries)
	}
}

// FuzzFrontierBatch: for any entry sequence, a batch iterated whole or
// block by block returns exactly what was added — also when the builder
// is reset and reused for the sequence's second half, as Search reuses
// its two level builders.
func FuzzFrontierBatch(f *testing.F) {
	entries := figure1Entries(f, 3*batchRestart+5)
	f.Add(formatBatchEntries(entries))
	f.Add(formatBatchEntries(entries[:batchRestart]))
	f.Add(formatBatchEntries(entries[:1]))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		entries := parseBatchEntries(data)
		var bb batchBuilder
		half := len(entries) / 2
		checkBatchRoundTrip(t, &bb, entries)
		checkBatchRoundTrip(t, &bb, entries[:half])
		checkBatchRoundTrip(t, &bb, entries[half:])
	})
}
