package capture

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"testing"
	"time"

	"dot11fp/internal/dot11"
	"dot11fp/internal/pcap"
)

// multiFixture builds a trace of n records from k senders and splits it
// round-robin into parts, each serialised as its own pcap stream.
func multiFixture(t *testing.T, n, senders, parts int) (*Trace, []*StreamReader) {
	t.Helper()
	tr := &Trace{Base: time.Unix(1700000000, 0).UTC(), Channel: 6}
	for i := 0; i < n; i++ {
		tr.Records = append(tr.Records, Record{
			T:      int64(i) * 1000,
			Sender: dot11.LocalAddr(uint64(i%senders + 1)),
			Class:  dot11.ClassData, Size: 300, RateMbps: 24, FCSOK: true,
		})
	}
	split := make([]*Trace, parts)
	for p := range split {
		split[p] = &Trace{Base: tr.Base, Channel: tr.Channel}
	}
	for i := range tr.Records {
		p := i % parts
		split[p].Records = append(split[p].Records, tr.Records[i])
	}
	var readers []*StreamReader
	for _, part := range split {
		var buf bytes.Buffer
		if err := WritePcap(&buf, part); err != nil {
			t.Fatal(err)
		}
		sr, err := NewStreamReader(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		readers = append(readers, sr)
	}
	return tr, readers
}

// TestMultiStreamByTime pins the deterministic merge: records from
// three interleaved pcap parts come back in ascending timestamp order,
// and the merged stream carries exactly the records of the original
// trace.
func TestMultiStreamByTime(t *testing.T) {
	t.Parallel()
	tr, readers := multiFixture(t, 600, 6, 3)
	srcs := make([]RecordSource, len(readers))
	for i, r := range readers {
		srcs[i] = r
	}
	ms := NewMultiStream(MergeByTime, false, srcs...)
	defer ms.Close()
	var got []Record
	for {
		rec, err := ms.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, rec)
	}
	if err := ms.Err(); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(tr.Records) {
		t.Fatalf("merged %d records, want %d", len(got), len(tr.Records))
	}
	for i := range got {
		if got[i].T != tr.Records[i].T || got[i].Sender != tr.Records[i].Sender {
			t.Fatalf("record %d: T=%d sender=%v, want T=%d sender=%v",
				i, got[i].T, got[i].Sender, tr.Records[i].T, tr.Records[i].Sender)
		}
		if i > 0 && got[i].T < got[i-1].T {
			t.Fatalf("merge out of order at %d: %d after %d", i, got[i].T, got[i-1].T)
		}
	}
}

// TestMultiStreamArrival pins the live-feed mode: every record arrives
// exactly once, each source's records arrive in that source's order
// (the interleaving across sources is unspecified), and EOF follows
// the last source.
func TestMultiStreamArrival(t *testing.T) {
	t.Parallel()
	const parts = 4
	tr, readers := multiFixture(t, 400, 4, parts)
	srcs := make([]RecordSource, len(readers))
	for i, r := range readers {
		srcs[i] = r
	}
	ms := NewMultiStream(MergeArrival, false, srcs...)
	defer ms.Close()
	seen := make(map[int64]int)
	lastT := [parts]int64{-1, -1, -1, -1}
	n := 0
	for {
		rec, err := ms.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		// multiFixture deals record i (T = i·1000) to part i%parts.
		p := rec.T / 1000 % parts
		if rec.T <= lastT[p] {
			t.Fatalf("source %d out of order: T=%d after T=%d", p, rec.T, lastT[p])
		}
		lastT[p] = rec.T
		seen[rec.T]++
		n++
	}
	if n != len(tr.Records) {
		t.Fatalf("arrival merge yielded %d records, want %d", n, len(tr.Records))
	}
	for _, c := range seen {
		if c != 1 {
			t.Fatal("a record arrived more than once")
		}
	}
}

// TestMultiStreamRebase pins the clock alignment: two sources with
// wildly different epochs merge into one zero-based stream.
func TestMultiStreamRebase(t *testing.T) {
	t.Parallel()
	mk := func(epoch int64, n int) *StreamReader {
		tr := &Trace{Base: time.Unix(1700000000, 0).UTC(), Channel: 6}
		for i := 0; i < n; i++ {
			tr.Records = append(tr.Records, Record{
				T: epoch + int64(i)*1000, Sender: dot11.LocalAddr(uint64(epoch%97 + 1)),
				Class: dot11.ClassData, Size: 300, RateMbps: 24, FCSOK: true,
			})
		}
		var buf bytes.Buffer
		if err := WritePcap(&buf, tr); err != nil {
			t.Fatal(err)
		}
		sr, err := NewStreamReader(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		return sr
	}
	ms := NewMultiStream(MergeByTime, true, mk(0, 50), mk(9_000_000_000, 50))
	defer ms.Close()
	n, maxT := 0, int64(0)
	for {
		rec, err := ms.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if rec.T > maxT {
			maxT = rec.T
		}
		n++
	}
	if n != 100 {
		t.Fatalf("merged %d records, want 100", n)
	}
	if maxT >= 9_000_000_000 {
		t.Fatalf("rebase left an epoch offset: max T = %d", maxT)
	}
}

// TestMultiStreamClose pins early shutdown: Close releases the decode
// goroutines and Next drains to io.EOF instead of blocking.
func TestMultiStreamClose(t *testing.T) {
	t.Parallel()
	_, readers := multiFixture(t, 10_000, 4, 2)
	srcs := make([]RecordSource, len(readers))
	for i, r := range readers {
		srcs[i] = r
	}
	ms := NewMultiStream(MergeByTime, false, srcs...)
	for i := 0; i < 10; i++ {
		if _, err := ms.Next(); err != nil {
			t.Fatal(err)
		}
	}
	ms.Close()
	for {
		_, err := ms.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	ms.Close() // idempotent
}

// stallAfterSource yields its scripted records, then blocks like a
// live feed whose writer has gone quiet, until closed.
type stallAfterSource struct {
	scriptSource
	*stallSource
}

func (s *stallAfterSource) Next() (Record, error) {
	if s.i < len(s.recs) {
		return s.scriptSource.Next()
	}
	return s.stallSource.Next()
}

// TestMultiStreamNoHoldBack pins that a pump publishes every record as
// soon as it is decoded: a source that yields a few records (far fewer
// than the prefetch depth) and then blocks must have all of them
// delivered by Next without further input, in both merge modes, and
// Close must then unblock the consumer.
func TestMultiStreamNoHoldBack(t *testing.T) {
	t.Parallel()
	const k = 5
	for _, mode := range []MergeMode{MergeByTime, MergeArrival} {
		src := &stallAfterSource{
			scriptSource: scriptSource{recs: seqRecords(0, k, 1)},
			stallSource:  newStallSource(),
		}
		ms := NewMultiStream(mode, false, src)
		defer ms.Close()
		got := make(chan error, 2)
		go func() {
			for i := 0; i < k; i++ {
				if _, err := ms.Next(); err != nil {
					got <- fmt.Errorf("record %d: %w", i, err)
					return
				}
			}
			got <- nil
			_, err := ms.Next()
			got <- err
		}()
		select {
		case err := <-got:
			if err != nil {
				t.Fatalf("mode %d: %v", mode, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("mode %d: %d published records held back while the source blocks", mode, k)
		}
		ms.Close()
		select {
		case err := <-got:
			if err != io.EOF {
				t.Fatalf("mode %d: Next after Close = %v, want io.EOF", mode, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("mode %d: Next still blocked after Close", mode)
		}
	}
}

// endlessSource yields records from sender LocalAddr(id+1) with
// ascending timestamps forever, allocating nothing.
type endlessSource struct {
	id uint64
	t  int64
}

func (s *endlessSource) Next() (Record, error) {
	s.t += 1000
	return Record{T: s.t, Sender: dot11.LocalAddr(s.id + 1), Class: dot11.ClassData,
		Size: 300, RateMbps: 24, FCSOK: true}, nil
}

// TestMultiStreamArrivalFair pins that MergeArrival takes turns across
// sources one batch at a time. Before each round both pumps have
// filled their queues, so each source always has records waiting; a
// round of multiPrefetch records must then come from one source, and
// the rounds must alternate. A merge that keeps re-draining whichever
// queue it is on while that queue stays non-empty would serve source 0
// every round, starving source 1's pump and the writer behind it.
func TestMultiStreamArrivalFair(t *testing.T) {
	t.Parallel()
	ms := NewMultiStream(MergeArrival, false, &endlessSource{id: 0}, &endlessSource{id: 1})
	defer ms.Close()
	var delivered [2]uint64
	for round := 0; round < 4; round++ {
		deadline := time.Now().Add(5 * time.Second)
		for {
			st := ms.SourceStats()
			if st[0].Records-delivered[0] >= multiPrefetch && st[1].Records-delivered[1] >= multiPrefetch {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("round %d: queues never filled: %+v", round, st)
			}
			time.Sleep(time.Millisecond)
		}
		want := dot11.LocalAddr(uint64(round%2) + 1)
		for i := 0; i < multiPrefetch; i++ {
			rec, err := ms.Next()
			if err != nil {
				t.Fatal(err)
			}
			if rec.Sender != want {
				t.Fatalf("round %d, record %d: sender %v, want %v (source %d's turn)", round, i, rec.Sender, want, round%2)
			}
		}
		delivered[round%2] += multiPrefetch
	}
}

// TestMultiStreamNextZeroAllocs pins the steady-state hand-off at zero
// allocations, pumps included: each run drains several full batches
// per source, so a queue that allocated a buffer per swap would show.
// Not parallel: AllocsPerRun counts every goroutine's allocations.
func TestMultiStreamNextZeroAllocs(t *testing.T) {
	for _, mode := range []MergeMode{MergeByTime, MergeArrival} {
		ms := NewMultiStream(mode, false, &endlessSource{id: 0}, &endlessSource{id: 1})
		allocs := testing.AllocsPerRun(1, func() {
			for i := 0; i < 8*multiPrefetch; i++ {
				if _, err := ms.Next(); err != nil {
					t.Fatal(err)
				}
			}
		})
		ms.Close()
		if allocs != 0 {
			t.Fatalf("mode %d: %v allocations over %d Next calls, want 0", mode, allocs, 8*multiPrefetch)
		}
	}
}

// TestStreamReaderTruncatedRecord pins the defined behaviour on a pcap
// whose final record is cut mid-body (a capture interrupted by a crash
// or a still-being-written file): every complete record is yielded,
// then the stream ends with pcap.ErrTruncated — not a silent EOF, and
// not a hang.
func TestStreamReaderTruncatedRecord(t *testing.T) {
	t.Parallel()
	tr := &Trace{Base: time.Unix(1700000000, 0).UTC(), Channel: 6}
	for i := 0; i < 20; i++ {
		tr.Records = append(tr.Records, Record{
			T: int64(i) * 1000, Sender: dot11.LocalAddr(uint64(i + 1)),
			Class: dot11.ClassData, Size: 300, RateMbps: 24, FCSOK: true,
		})
	}
	var buf bytes.Buffer
	if err := WritePcap(&buf, tr); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	sr, err := NewStreamReader(bytes.NewReader(raw[:len(raw)-7])) // cut the last record's body
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for {
		_, err := sr.Next()
		if err == nil {
			n++
			continue
		}
		if err == io.EOF {
			t.Fatal("truncated record surfaced as clean EOF")
		}
		if !errors.Is(err, pcap.ErrTruncated) {
			t.Fatalf("truncated record surfaced as %v, want pcap.ErrTruncated", err)
		}
		break
	}
	if n != len(tr.Records)-1 {
		t.Fatalf("%d records decoded before the truncation, want %d", n, len(tr.Records)-1)
	}
	// The batch adapter surfaces the same error.
	if _, err := ReadPcap(bytes.NewReader(raw[:len(raw)-7])); !errors.Is(err, pcap.ErrTruncated) {
		t.Fatalf("ReadPcap on truncated stream: %v, want pcap.ErrTruncated", err)
	}
}
