package mcheck

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/maphash"
	"io"
	"os"
	"sort"
	"sync"
	"sync/atomic"
)

// spillVisited is the disk-spillable backend: each of the 64 shards keeps
// a bounded in-memory portion (same chained-hash structure as the
// reference set), and when a shard crosses its byte budget the resident
// entries are sorted by (digest, encoding) and appended to the shard's
// run file as one immutable, prefix-compressed run with an in-memory
// fence index and membership filter. novel/insert probe memory first,
// then the shard's runs newest-first via positioned reads (pread),
// skipping every run whose filter rules the digest out, so the answer
// every probe returns is exactly the reference backend's: runs are
// snapshots and the freshest record of an encoding — a later budget
// upgrade lands in memory or in a newer run — always shadows older ones.
// When a shard accumulates too many runs they are k-way merged into one
// run in a fresh file, keeping the newest record of each encoding, which
// bounds both lookup fan-out and disk growth.
//
// The result is a search whose resident set is O(MemBudget + fence
// indexes + filters) regardless of state count; only the run files grow,
// at the (compressed) size of the distinct encodings. Disk I/O failures
// and corrupt runs are unrecoverable mid-search and panic with context.
//
// Concurrency: insert/spill/compaction run only on the merge goroutine
// under the shard write lock; concurrent novel calls hold the read lock,
// and a run's bytes never change once written (os.File.ReadAt is safe for
// concurrent use), so readers never see a run mid-construction.
type spillVisited struct {
	seed     maphash.Seed
	dir      string // run-file directory, created by and private to this store
	perShard int64  // in-memory byte budget per shard
	shards   [visitedShards]spillShard

	readers     sync.Pool    // *runReader lookup scratch
	reads       atomic.Int64 // run blocks read by probes
	compactions int          // merge-goroutine only
}

type spillShard struct {
	mu      sync.RWMutex
	index   map[uint64]int32
	entries []spillEntry
	bytes   int64 // resident bytes of the in-memory portion

	distinct int         // distinct encodings ever recorded (mem + runs)
	runs     []*spillRun // oldest first; lookups scan newest first
	// file holds the shard's runs as consecutive regions, oldest first,
	// so runBytes is also its end offset, where the next spill appends.
	file       *os.File
	runBytes   int64
	runEntries int64 // entries residing in runs (incl. superseded dups)
	fenceBytes int64 // fence indexes plus filters
}

// spillEntry is one in-memory record; unlike visitedEntry it carries its
// digest so a shard can be sorted and spilled without re-hashing.
type spillEntry struct {
	h      uint64
	enc    []byte
	budget int32
	next   int32
}

// spillRun is one immutable sorted run: its region [base, base+size) of
// the shard file, its fence index (the digest and run-relative offset of
// every restart block, enough to land a lookup on the one or two blocks
// that can contain a digest) and a membership filter over its digests.
type spillRun struct {
	f      io.ReaderAt
	base   int64
	size   int64
	fence  []runFence
	filter runFilter
	count  int
}

type runFence struct {
	h   uint64
	off int64
}

const (
	// spillBlockEntries is the restart interval: each block's first entry
	// is written in full, subsequent entries delta-encode their digest and
	// share a varint-length prefix with their predecessor.
	spillBlockEntries = 64
	// spillMaxRuns triggers a shard compaction: probes touch at most this
	// many runs plus the in-memory portion.
	spillMaxRuns = 6
	// spillMinSpillEntries keeps a pathological byte budget from emitting
	// near-empty runs.
	spillMinSpillEntries = 16
	spillFenceOverhead   = 16 // bytes per runFence
	// spillFilterBits and spillFilterProbes size each run's filter: about
	// 16 bits per entry and 4 probes put its false-positive rate near
	// 0.25%, so a probe for an absent digest almost never reads a block.
	spillFilterBits   = 16
	spillFilterProbes = 4
)

func newSpillVisited(cfg VisitedConfig) *spillVisited {
	dir, err := os.MkdirTemp(cfg.SpillDir, "mcheck-spill-*")
	if err != nil {
		panic(fmt.Sprintf("mcheck: spill backend: creating spill directory: %v", err))
	}
	per := cfg.MemBudget / visitedShards
	if per < 1<<10 {
		per = 1 << 10
	}
	v := &spillVisited{seed: maphash.MakeSeed(), dir: dir, perShard: per}
	for i := range v.shards {
		v.shards[i].index = make(map[uint64]int32)
	}
	return v
}

func (v *spillVisited) hash(enc []byte) uint64 {
	return maphash.Bytes(v.seed, enc)
}

// memLookup walks the in-memory chain for (h, enc). Caller holds the
// shard lock (either mode).
func (sh *spillShard) memLookup(h uint64, enc []byte) (int32, bool) {
	i, ok := sh.index[h]
	for ok && i >= 0 {
		e := &sh.entries[i]
		if bytes.Equal(e.enc, enc) {
			return e.budget, true
		}
		i = e.next
	}
	return 0, false
}

// lookupRuns probes the shard's runs newest-first, reading only those
// whose filter admits h. Caller holds the shard lock (either mode), which
// pins the run list; file reads are positioned and lock-free.
func (v *spillVisited) lookupRuns(sh *spillShard, h uint64, enc []byte) (int32, bool) {
	var rd *runReader
	var b int32
	found := false
	for i := len(sh.runs) - 1; i >= 0 && !found; i-- {
		r := sh.runs[i]
		if !r.filter.mayContain(h) {
			continue
		}
		if rd == nil {
			rd = v.getReader()
		}
		b, found = r.lookup(h, enc, rd)
	}
	if rd != nil {
		v.reads.Add(rd.reads)
		rd.reads = 0
		v.readers.Put(rd)
	}
	return b, found
}

// addEntry appends (h, enc, budget) to the in-memory portion. Caller
// holds the write lock and has established the encoding is not resident.
func (sh *spillShard) addEntry(h uint64, enc []byte, budget int) {
	head, ok := sh.index[h]
	if !ok {
		head = -1
	}
	sh.entries = append(sh.entries, spillEntry{h: h, enc: enc, budget: int32(budget), next: head})
	sh.index[h] = int32(len(sh.entries) - 1)
	sh.bytes += int64(len(enc)) + visitedEntryOverhead
}

func (v *spillVisited) novel(h uint64, enc []byte, budget int) bool {
	sh := &v.shards[h&(visitedShards-1)]
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	if b, ok := sh.memLookup(h, enc); ok {
		return int(b) < budget
	}
	if b, ok := v.lookupRuns(sh, h, enc); ok {
		return int(b) < budget
	}
	return true
}

func (v *spillVisited) insert(h uint64, enc []byte, budget int) bool {
	sh := &v.shards[h&(visitedShards-1)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if i, ok := sh.index[h]; ok {
		for i >= 0 {
			e := &sh.entries[i]
			if bytes.Equal(e.enc, enc) {
				if int(e.budget) >= budget {
					return false
				}
				e.budget = int32(budget)
				return true
			}
			i = e.next
		}
	}
	// A budget upgrade of a spilled encoding is not a new distinct entry:
	// the new record lives in memory and shadows the run copy at every
	// future probe.
	b, found := v.lookupRuns(sh, h, enc)
	if found && int(b) >= budget {
		return false
	}
	sh.addEntry(h, enc, budget)
	if !found {
		sh.distinct++
	}
	if sh.bytes > v.perShard && len(sh.entries) >= spillMinSpillEntries {
		v.spill(sh)
		if len(sh.runs) > spillMaxRuns {
			v.compact(sh)
		}
	}
	return true
}

// createRunFile makes a fresh, empty run file in the store's directory.
func (v *spillVisited) createRunFile() *os.File {
	f, err := os.CreateTemp(v.dir, "shard-*.spill")
	if err != nil {
		panic(fmt.Sprintf("mcheck: spill backend: creating run file: %v", err))
	}
	return f
}

// spill sorts the shard's resident entries by (digest, encoding) and
// appends them to the shard file as one new run, then resets the
// in-memory portion. Caller holds the write lock.
func (v *spillVisited) spill(sh *spillShard) {
	sort.Slice(sh.entries, func(i, j int) bool {
		a, b := &sh.entries[i], &sh.entries[j]
		if a.h != b.h {
			return a.h < b.h
		}
		return bytes.Compare(a.enc, b.enc) < 0
	})
	if sh.file == nil {
		sh.file = v.createRunFile()
	}
	w := newRunWriter(io.NewOffsetWriter(sh.file, sh.runBytes), len(sh.entries))
	for i := range sh.entries {
		e := &sh.entries[i]
		w.add(e.h, e.enc, e.budget)
	}
	run := w.finish(sh.file, sh.runBytes)
	sh.runs = append(sh.runs, run)
	sh.runBytes += run.size
	sh.runEntries += int64(run.count)
	sh.fenceBytes += run.residentBytes()
	for k := range sh.index {
		delete(sh.index, k)
	}
	sh.entries = sh.entries[:0]
	sh.bytes = 0
}

// compact k-way-merges every run of the shard into one run in a fresh
// file, keeping the newest record of each (digest, encoding) and dropping
// superseded duplicates, then removes the old file. Caller holds the
// write lock.
func (v *spillVisited) compact(sh *spillShard) {
	cursors := make([]*runCursor, len(sh.runs))
	n := 0
	for i, r := range sh.runs {
		cursors[i] = &runCursor{run: r}
		cursors[i].next() // prime; every run has >= 1 entry
		n += r.count
	}
	f := v.createRunFile()
	w := newRunWriter(io.NewOffsetWriter(f, 0), n)
	var keyEnc []byte
	for {
		// Pick the smallest live (h, enc); among equal keys the newest run
		// (highest index) wins and the stale copies are skipped.
		best := -1
		for i, c := range cursors {
			if c.done {
				continue
			}
			if best < 0 {
				best = i
				continue
			}
			b := cursors[best]
			if c.h < b.h || (c.h == b.h && bytes.Compare(c.enc, b.enc) < 0) {
				best = i
			}
		}
		if best < 0 {
			break
		}
		// Newest-wins among duplicates: scan above best for the same key.
		winner := best
		for i := best + 1; i < len(cursors); i++ {
			c := cursors[i]
			if !c.done && c.h == cursors[best].h && bytes.Equal(c.enc, cursors[best].enc) {
				winner = i
			}
		}
		// Snapshot the key before advancing anything: every cursor's enc is
		// scratch that mutates on next(), and comparing later cursors
		// against an already-advanced winner would skip their next key.
		keyH := cursors[winner].h
		keyEnc = append(keyEnc[:0], cursors[winner].enc...)
		w.add(keyH, keyEnc, cursors[winner].budget)
		for i := best; i < len(cursors); i++ {
			c := cursors[i]
			if !c.done && c.h == keyH && bytes.Equal(c.enc, keyEnc) {
				c.next()
			}
		}
	}
	merged := w.finish(f, 0)
	name := sh.file.Name()
	sh.file.Close()
	os.Remove(name)
	sh.file = f
	sh.runs = append(sh.runs[:0], merged)
	sh.runBytes = merged.size
	sh.runEntries = int64(merged.count)
	sh.fenceBytes = merged.residentBytes()
	v.compactions++
}

func (v *spillVisited) size() int {
	n := 0
	for i := range v.shards {
		sh := &v.shards[i]
		sh.mu.RLock()
		n += sh.distinct
		sh.mu.RUnlock()
	}
	return n
}

func (v *spillVisited) shardSizes(buf []int) []int {
	buf = sizeBuf(buf)
	for i := range v.shards {
		sh := &v.shards[i]
		sh.mu.RLock()
		buf[i] = sh.distinct
		sh.mu.RUnlock()
	}
	return buf
}

func (v *spillVisited) stats(st *VisitedStats) {
	*st = VisitedStats{Backend: "spill", Compactions: v.compactions, SpillReads: v.reads.Load()}
	for i := range v.shards {
		sh := &v.shards[i]
		sh.mu.RLock()
		st.Entries += sh.distinct
		st.Bytes += sh.bytes + sh.fenceBytes
		if sh.distinct > st.PeakShardEntries {
			st.PeakShardEntries = sh.distinct
		}
		st.SpillBytes += sh.runBytes
		st.SpillRuns += len(sh.runs)
		st.SpilledEntries += sh.runEntries
		sh.mu.RUnlock()
	}
}

func (v *spillVisited) close() {
	for i := range v.shards {
		sh := &v.shards[i]
		sh.mu.Lock()
		if sh.file != nil {
			sh.file.Close()
			sh.file = nil
		}
		sh.runs = nil
		sh.mu.Unlock()
	}
	os.RemoveAll(v.dir)
}

func (v *spillVisited) getReader() *runReader {
	if x := v.readers.Get(); x != nil {
		return x.(*runReader)
	}
	return &runReader{}
}

// --- run filter -----------------------------------------------------------

// runFilter is a Bloom filter over a run's entry digests: a probe whose
// digest it rules out skips the run without reading it. It has no false
// negatives, so skipping never changes an answer. Bit positions come from
// the digest bits above the low six, which select the shard and are
// therefore the same for every digest the filter holds.
type runFilter []uint64

func newRunFilter(entries int) runFilter {
	return make(runFilter, max(1, (entries*spillFilterBits+63)/64))
}

// probeBits splits h into the two 32-bit hashes a filter double-hashes
// with: probe i sits at a + i*b, mapped onto the filter's bit range by a
// multiply-shift.
func probeBits(h uint64) (a, b uint32) {
	return uint32(h >> 6), uint32(h >> 32)
}

func (f runFilter) add(h uint64) {
	m := uint64(len(f)) * 64
	a, b := probeBits(h)
	for i := 0; i < spillFilterProbes; i++ {
		bit := uint64(a) * m >> 32
		f[bit/64] |= 1 << (bit % 64)
		a += b
	}
}

// mayContain reports whether h may be one of the filter's digests; false
// means it certainly is not.
func (f runFilter) mayContain(h uint64) bool {
	m := uint64(len(f)) * 64
	a, b := probeBits(h)
	for i := 0; i < spillFilterProbes; i++ {
		bit := uint64(a) * m >> 32
		if f[bit/64]&(1<<(bit%64)) == 0 {
			return false
		}
		a += b
	}
	return true
}

// --- run file format ---------------------------------------------------
//
// A run is a sequence of blocks of up to spillBlockEntries entries, each
// entry:
//
//	uvarint digest delta (block-first entry: the full digest)
//	uvarint budget
//	uvarint shared   (prefix length shared with the previous entry; 0 at
//	                  a block start)
//	uvarint suffixLen, then suffixLen encoding bytes
//
// Entries are sorted by (digest, encoding), so digest deltas are
// non-negative and neighbouring state encodings — which differ in a few
// trailing counters far more often than anywhere else under a sorted
// digest tie — compress against each other. The fence index holds one
// (digest, offset) pair per block.

type runWriter struct {
	bw     *bufio.Writer
	fence  []runFence
	filter runFilter
	count  int
	blockN int
	off    int64
	prevH  uint64
	prev   []byte
	tmp    [binary.MaxVarintLen64]byte
}

// newRunWriter writes a run of about entries entries to dst; the count
// sizes the run's filter.
func newRunWriter(dst io.Writer, entries int) *runWriter {
	return &runWriter{bw: bufio.NewWriter(dst), filter: newRunFilter(entries)}
}

func (w *runWriter) uvarint(x uint64) {
	n := binary.PutUvarint(w.tmp[:], x)
	if _, err := w.bw.Write(w.tmp[:n]); err != nil {
		panic(fmt.Sprintf("mcheck: spill backend: writing run: %v", err))
	}
	w.off += int64(n)
}

func (w *runWriter) add(h uint64, enc []byte, budget int32) {
	if w.blockN == spillBlockEntries {
		w.blockN = 0
	}
	if w.blockN == 0 {
		w.fence = append(w.fence, runFence{h: h, off: w.off})
		w.prevH = 0
		w.prev = w.prev[:0]
	}
	w.filter.add(h)
	w.uvarint(h - w.prevH)
	w.uvarint(uint64(budget))
	shared := 0
	for shared < len(w.prev) && shared < len(enc) && w.prev[shared] == enc[shared] {
		shared++
	}
	w.uvarint(uint64(shared))
	w.uvarint(uint64(len(enc) - shared))
	if _, err := w.bw.Write(enc[shared:]); err != nil {
		panic(fmt.Sprintf("mcheck: spill backend: writing run: %v", err))
	}
	w.off += int64(len(enc) - shared)
	w.prevH = h
	w.prev = append(w.prev[:0], enc...)
	w.blockN++
	w.count++
}

// finish flushes the run and returns it as the region of f starting at
// base, where the writer's destination put it.
func (w *runWriter) finish(f io.ReaderAt, base int64) *spillRun {
	if err := w.bw.Flush(); err != nil {
		panic(fmt.Sprintf("mcheck: spill backend: flushing run: %v", err))
	}
	return &spillRun{f: f, base: base, size: w.off, fence: w.fence, filter: w.filter, count: w.count}
}

// residentBytes is the run's in-memory cost: its fence index and filter.
func (r *spillRun) residentBytes() int64 {
	return int64(len(r.fence))*spillFenceOverhead + int64(len(r.filter))*8
}

// readBlock reads block bi of the run into buf's storage and returns it.
func (r *spillRun) readBlock(bi int, buf []byte) []byte {
	start, end := r.fence[bi].off, r.size
	if bi+1 < len(r.fence) {
		end = r.fence[bi+1].off
	}
	if int64(cap(buf)) < end-start {
		buf = make([]byte, end-start)
	}
	buf = buf[:end-start]
	if _, err := r.f.ReadAt(buf, r.base+start); err != nil {
		panic(fmt.Sprintf("mcheck: spill backend: reading run block: %v", err))
	}
	return buf
}

// runEntry is one decoded run entry. Decoding a block reuses one
// runEntry: each entry's digest and encoding are deltas against the
// previous entry's, and the zero runEntry is the state at a block start.
type runEntry struct {
	h      uint64
	budget int32
	enc    []byte
}

// decodeRunEntry decodes the entry at block[pos:] over e, the previous
// entry of the block, and returns the offset of the next entry. It
// reports malformed input as an error and never reads outside block.
func decodeRunEntry(block []byte, pos int, e *runEntry) (int, error) {
	var field [4]uint64 // digest delta, budget, shared, suffix length
	for i := range field {
		x, n := binary.Uvarint(block[pos:])
		if n <= 0 {
			return pos, fmt.Errorf("bad varint at offset %d", pos)
		}
		field[i] = x
		pos += n
	}
	shared, slen := field[2], field[3]
	if shared > uint64(len(e.enc)) {
		return pos, fmt.Errorf("shared prefix %d exceeds the previous %d-byte encoding", shared, len(e.enc))
	}
	if slen > uint64(len(block)-pos) {
		return pos, fmt.Errorf("%d-byte suffix at offset %d overruns the %d-byte block", slen, pos, len(block))
	}
	e.h += field[0]
	e.budget = int32(field[1])
	e.enc = append(e.enc[:shared], block[pos:pos+int(slen)]...)
	return pos + int(slen), nil
}

// runReader is the pooled per-lookup scratch: one block buffer, one
// entry-reconstruction buffer and the count of blocks read since the
// reader was last drained.
type runReader struct {
	block []byte
	cur   []byte
	reads int64
}

// lookup finds (h, enc) in the run. The fence index narrows the scan to
// the block run of candidate digests; blocks are fetched with positioned
// reads, so concurrent lookups share the file safely.
func (r *spillRun) lookup(h uint64, enc []byte, rd *runReader) (int32, bool) {
	bi := sort.Search(len(r.fence), func(i int) bool { return r.fence[i].h > h }) - 1
	if bi < 0 {
		return 0, false
	}
	// Equal digests can span a block boundary; back up over blocks that
	// START at h, since the sequence may begin in an earlier one.
	for bi > 0 && r.fence[bi].h == h {
		bi--
	}
	for ; bi < len(r.fence); bi++ {
		if r.fence[bi].h > h {
			return 0, false
		}
		rd.block = r.readBlock(bi, rd.block)
		rd.reads++
		e := runEntry{enc: rd.cur[:0]}
		for pos := 0; pos < len(rd.block); {
			var err error
			if pos, err = decodeRunEntry(rd.block, pos, &e); err != nil {
				panic(fmt.Sprintf("mcheck: spill backend: corrupt run block: %v", err))
			}
			rd.cur = e.enc
			if e.h > h {
				return 0, false
			}
			if e.h == h && bytes.Equal(e.enc, enc) {
				return e.budget, true
			}
		}
	}
	return 0, false
}

// runCursor streams a run's entries in order for compaction, one
// fence-addressed block read at a time.
type runCursor struct {
	run   *spillRun
	bi    int // next block to read
	block []byte
	pos   int
	runEntry
	done bool
}

func (c *runCursor) next() bool {
	for c.pos == len(c.block) {
		if c.bi == len(c.run.fence) {
			c.done = true
			return false
		}
		c.block = c.run.readBlock(c.bi, c.block)
		c.bi++
		c.pos = 0
		c.runEntry = runEntry{enc: c.enc[:0]}
	}
	pos, err := decodeRunEntry(c.block, c.pos, &c.runEntry)
	if err != nil {
		panic(fmt.Sprintf("mcheck: spill backend: corrupt run during compaction: %v", err))
	}
	c.pos = pos
	return true
}
