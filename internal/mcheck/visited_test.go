package mcheck

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strings"
	"testing"
)

// allBackendStores builds one store per backend, the spill store at a
// hostile one-byte budget. Callers must close them.
func allBackendStores(t *testing.T) map[string]visitedStore {
	t.Helper()
	return map[string]visitedStore{
		"mem":   newVisitedSet(),
		"spill": newSpillVisited(normalizeVisitedConfig(VisitedConfig{Backend: VisitedSpill, MemBudget: 1, SpillDir: t.TempDir()})),
	}
}

// TestVisitedDigestCollisions: two different encodings inserted under the
// SAME 64-bit digest must chain, not conflate — every backend verifies
// the full encoding bytes behind the digest.
func TestVisitedDigestCollisions(t *testing.T) {
	for name, st := range allBackendStores(t) {
		t.Run(name, func(t *testing.T) {
			defer st.close()
			const h = uint64(0xdeadbeefcafef00d)
			a := []byte("encoding-alpha")
			b := []byte("encoding-beta-longer")
			c := []byte("encoding-gamma")
			if !st.insert(h, a, 0) || !st.insert(h, b, 0) {
				t.Fatal("fresh colliding encodings rejected")
			}
			if st.novel(h, a, 0) || st.novel(h, b, 0) {
				t.Fatal("inserted encoding still novel")
			}
			if !st.novel(h, c, 0) {
				t.Fatal("distinct encoding conflated with a digest collision")
			}
			if st.insert(h, a, 0) {
				t.Fatal("re-inserting a chained encoding claimed novelty")
			}
			if st.size() != 2 {
				t.Fatalf("size = %d, want 2", st.size())
			}
		})
	}
}

// TestVisitedBudgetReexpansion: a state revisited with a strictly larger
// stall budget is novel again (it can reach successors the smaller budget
// could not), smaller or equal budgets never are — and a tightening never
// erases the recorded high-water budget.
func TestVisitedBudgetReexpansion(t *testing.T) {
	for name, st := range allBackendStores(t) {
		t.Run(name, func(t *testing.T) {
			defer st.close()
			enc := []byte("some-state-encoding")
			h := st.hash(enc)
			if !st.insert(h, enc, 2) {
				t.Fatal("fresh insert rejected")
			}
			if st.novel(h, enc, 1) || st.novel(h, enc, 2) {
				t.Fatal("smaller/equal budget reported novel")
			}
			if st.insert(h, enc, 1) {
				t.Fatal("budget-tightening insert claimed novelty")
			}
			if !st.novel(h, enc, 3) {
				t.Fatal("larger budget not novel")
			}
			if !st.insert(h, enc, 3) {
				t.Fatal("budget-raising insert rejected")
			}
			if st.novel(h, enc, 3) {
				t.Fatal("recorded budget did not rise to 3")
			}
			if st.size() != 1 {
				t.Fatalf("size = %d, want 1 (budget updates are not new entries)", st.size())
			}
		})
	}
}

// TestSpillVisitedMatchesReference drives the spill backend with a
// deterministic random workload against a plain map model: thousands of
// entries under a one-byte budget, so every shard spills repeatedly and
// compacts several times, with budget upgrades mixed in throughout.
func TestSpillVisitedMatchesReference(t *testing.T) {
	st := newSpillVisited(normalizeVisitedConfig(VisitedConfig{
		Backend: VisitedSpill, MemBudget: 1, SpillDir: t.TempDir()}))
	defer st.close()

	rng := rand.New(rand.NewSource(7))
	model := make(map[string]int)
	var keys []string
	for i := 0; i < 20000; i++ {
		var enc []byte
		var budget int
		if len(keys) > 0 && rng.Intn(10) < 3 {
			enc = []byte(keys[rng.Intn(len(keys))])
			budget = rng.Intn(5)
		} else {
			enc = make([]byte, 8+rng.Intn(32))
			rng.Read(enc)
			budget = rng.Intn(5)
		}
		key := string(enc)
		old, seen := model[key]
		wantNew := !seen || old < budget
		h := st.hash(enc)
		if got := st.novel(h, enc, budget); got != wantNew {
			t.Fatalf("op %d: novel = %v, model says %v", i, got, wantNew)
		}
		if got := st.insert(h, enc, budget); got != wantNew {
			t.Fatalf("op %d: insert = %v, model says %v", i, got, wantNew)
		}
		if wantNew {
			if !seen {
				keys = append(keys, key)
			}
			model[key] = budget
		}
	}

	if st.size() != len(model) {
		t.Fatalf("size = %d, model has %d distinct encodings", st.size(), len(model))
	}
	// Every recorded encoding: not novel at its budget, novel just above.
	for _, key := range keys {
		enc := []byte(key)
		h := st.hash(enc)
		if st.novel(h, enc, model[key]) {
			t.Fatalf("recorded encoding novel at its own budget %d", model[key])
		}
		if !st.novel(h, enc, model[key]+1) {
			t.Fatalf("recorded encoding not novel above its budget")
		}
	}

	// Encodings never inserted are novel, and the run filters keep their
	// probes off disk: without them each would read one block from every
	// run of its shard.
	var vs VisitedStats
	st.stats(&vs)
	readsBefore := vs.SpillReads
	absent := rand.New(rand.NewSource(8))
	for i := 0; i < 20000; i++ {
		enc := make([]byte, 8+absent.Intn(32))
		absent.Read(enc)
		if _, seen := model[string(enc)]; seen {
			continue
		}
		if !st.novel(st.hash(enc), enc, 0) {
			t.Fatalf("never-inserted encoding %x is not novel", enc)
		}
	}
	st.stats(&vs)
	if extra := vs.SpillReads - readsBefore; extra > 2000 {
		t.Fatalf("20k probes for absent encodings read %d run blocks, want at most 2000", extra)
	}
	files, err := os.ReadDir(st.dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) > visitedShards {
		t.Fatalf("%d files in the spill directory, want at most one per shard (%d)", len(files), visitedShards)
	}

	if vs.Backend != "spill" || vs.Entries != len(model) {
		t.Fatalf("stats = %+v, want spill/%d", vs, len(model))
	}
	if vs.SpillRuns <= 0 || vs.SpillBytes <= 0 || vs.SpilledEntries <= 0 {
		t.Fatalf("one-byte budget never spilled: %+v", vs)
	}
	if vs.Compactions <= 0 {
		t.Fatalf("20k entries over a one-byte budget never compacted: %+v", vs)
	}
	if vs.SpillRuns > visitedShards*(spillMaxRuns+1) {
		t.Fatalf("compaction is not bounding run count: %d runs", vs.SpillRuns)
	}
}

// TestSpillCloseRemovesFiles: close must leave nothing on disk.
func TestSpillCloseRemovesFiles(t *testing.T) {
	parent := t.TempDir()
	st := newSpillVisited(normalizeVisitedConfig(VisitedConfig{
		Backend: VisitedSpill, MemBudget: 1, SpillDir: parent}))
	for i := 0; i < 5000; i++ {
		enc := []byte(fmt.Sprintf("state-encoding-%06d", i))
		st.insert(st.hash(enc), enc, 0)
	}
	var vs VisitedStats
	st.stats(&vs)
	if vs.SpillRuns == 0 {
		t.Fatal("workload never spilled; close test is vacuous")
	}
	dir := st.dir
	st.close()
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Fatalf("spill directory %s survives close (err=%v)", dir, err)
	}
	ents, err := os.ReadDir(parent)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 0 {
		t.Fatalf("%d entries left under the spill parent", len(ents))
	}
}

// Spill fuzz input, read two ways. As a run block it is arbitrary bytes.
// As an entry list it is a sequence of records, each
//
//	digest  one byte d, expanded to d * 0x0101010101010101 so that few
//	        distinct digests recur and equal-digest sequences cross
//	        block boundaries
//	budget  one byte
//	shared  one byte: prefix length taken from the previous record's
//	        encoding (clamped to its length)
//	n       one byte: suffix length (clamped to the remaining input)
//	suffix  n bytes
//
// A truncated trailing record keeps whatever fields it has, zeroing the
// rest. The list is then sorted by (digest, encoding) and deduplicated,
// as a spill writes it.

// parseSpillEntries decodes a fuzz input into the sorted, distinct
// entries of one run.
func parseSpillEntries(data []byte) []runEntry {
	var out []runEntry
	var prev []byte
	take := func(n int) []byte {
		n = min(n, len(data))
		b := data[:n]
		data = data[n:]
		return b
	}
	for len(data) > 0 {
		var hdr [4]byte
		copy(hdr[:], take(4))
		shared := min(int(hdr[2]), len(prev))
		enc := append(append([]byte{}, prev[:shared]...), take(int(hdr[3]))...)
		out = append(out, runEntry{h: uint64(hdr[0]) * 0x0101010101010101, budget: int32(hdr[1]), enc: enc})
		prev = enc
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].h != out[j].h {
			return out[i].h < out[j].h
		}
		return bytes.Compare(out[i].enc, out[j].enc) < 0
	})
	dedup := out[:0]
	for _, e := range out {
		if n := len(dedup); n > 0 && dedup[n-1].h == e.h && bytes.Equal(dedup[n-1].enc, e.enc) {
			continue
		}
		dedup = append(dedup, e)
	}
	return dedup
}

// FuzzSpillRunBlock: the run-block decoder never panics on arbitrary
// bytes (a lookup over a corrupt block panics only with its documented
// message), and a run written by runWriter reads back, through the
// compaction cursor, as exactly the entries written, each of which
// lookup finds behind a filter that admits its digest.
func FuzzSpillRunBlock(f *testing.F) {
	var run bytes.Buffer
	w := newRunWriter(&run, 3)
	for i, s := range []string{"state-a", "state-ab", "state-b"} {
		w.add(uint64(i+1)<<8, []byte(s), int32(i))
	}
	w.finish(nil, 0)
	f.Add(run.Bytes())
	// An over-long first varint, and a suffix length of 2^63+1 that wraps
	// negative as an int.
	f.Add(append(bytes.Repeat([]byte{0xff}, 9), 0x02))
	f.Add(binary.AppendUvarint([]byte{0, 0, 0}, 1<<63+1))
	// 200 entries over 8 digests: several blocks, with equal-digest
	// sequences crossing block boundaries.
	rng := rand.New(rand.NewSource(1))
	var many []byte
	for i := 0; i < 200; i++ {
		many = append(many, byte(rng.Intn(8)), byte(i), byte(rng.Intn(6)), 2, byte(rng.Intn(256)), byte(rng.Intn(256)))
	}
	f.Add(many)
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		var e runEntry
		for pos := 0; pos < len(data); {
			next, err := decodeRunEntry(data, pos, &e)
			if err != nil {
				break
			}
			if next <= pos || next > len(data) {
				t.Fatalf("decoder moved from offset %d to %d in a %d-byte block", pos, next, len(data))
			}
			pos = next
		}
		if len(data) > 0 {
			corrupt := &spillRun{f: bytes.NewReader(data), size: int64(len(data)), fence: []runFence{{}}}
			func() {
				defer func() {
					if p := recover(); p != nil {
						if msg, _ := p.(string); !strings.HasPrefix(msg, "mcheck: spill backend: corrupt run block: ") {
							panic(p)
						}
					}
				}()
				corrupt.lookup(^uint64(0), nil, &runReader{})
			}()
		}

		entries := parseSpillEntries(data)
		if len(entries) == 0 {
			return
		}
		var buf bytes.Buffer
		w := newRunWriter(&buf, len(entries))
		for _, e := range entries {
			w.add(e.h, e.enc, e.budget)
		}
		r := w.finish(nil, 0) // flushes into buf
		r.f = bytes.NewReader(buf.Bytes())
		c := &runCursor{run: r}
		for i, want := range entries {
			if !c.next() {
				t.Fatalf("cursor ended after %d of %d entries", i, len(entries))
			}
			if c.h != want.h || c.budget != want.budget || !bytes.Equal(c.enc, want.enc) {
				t.Fatalf("entry %d: read (%x, %d, %q), wrote (%x, %d, %q)",
					i, c.h, c.budget, c.enc, want.h, want.budget, want.enc)
			}
		}
		if c.next() {
			t.Fatalf("cursor read past the %d entries written", len(entries))
		}
		rd := &runReader{}
		for i, e := range entries {
			if !r.filter.mayContain(e.h) {
				t.Fatalf("entry %d: filter rules out a digest it holds", i)
			}
			if b, ok := r.lookup(e.h, e.enc, rd); !ok || b != e.budget {
				t.Fatalf("entry %d: lookup = (%d, %v), want (%d, true)", i, b, ok, e.budget)
			}
		}
	})
}
