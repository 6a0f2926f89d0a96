package capture

import (
	"errors"
	"fmt"
	"io"
	"runtime"
	"sort"
	"testing"

	"dot11fp/internal/dot11"
)

// fuzzSource yields scripted records, then its terminal error (io.EOF
// when err is nil), yielding the processor before each record whose
// bit in the rotating yield mask is set — so pumps and the merge
// interleave differently from input to input.
type fuzzSource struct {
	recs  []Record
	err   error
	yield uint8
	i     int
}

func (s *fuzzSource) Next() (Record, error) {
	if s.i >= len(s.recs) {
		if s.err != nil {
			return Record{}, s.err
		}
		return Record{}, io.EOF
	}
	if s.yield>>(s.i%8)&1 != 0 {
		runtime.Gosched()
	}
	r := s.recs[s.i]
	s.i++
	return r, nil
}

// fuzzSources decodes raw into 1–8 source templates, three header
// bytes each: count, yield mask, start. Source i's records carry
// Sender i+1 and Size = their index in the source, so output can be
// traced back; timestamps start in [0,4) and step by 0–2 µs, so ties
// within and across sources are common. A count byte with 0x40 set
// multiplies the count by 20, overflowing multiPrefetch; 0x80 gives the
// source a terminal error.
func fuzzSources(raw []byte) []fuzzSource {
	at := func(k int) byte {
		if len(raw) == 0 {
			return 0
		}
		return raw[k%len(raw)]
	}
	srcs := make([]fuzzSource, 1+int(at(0)%8))
	for i := range srcs {
		s := &srcs[i]
		c := at(1 + 3*i)
		s.yield = at(2 + 3*i)
		count := int(c % 64)
		if c&0x40 != 0 {
			count *= 20
		}
		if c&0x80 != 0 {
			s.err = fmt.Errorf("source %d failed", i)
		}
		t := int64(at(3+3*i) % 4)
		for j := 0; j < count; j++ {
			t += int64(at(1+3*len(srcs)+7*i+j) % 3)
			s.recs = append(s.recs, Record{T: t, Sender: dot11.LocalAddr(uint64(i + 1)), Size: j})
		}
	}
	return srcs
}

// FuzzMultiStreamMerge is the differential oracle for MultiStream.
// MergeByTime must equal a stable sort of the sources' concatenation
// by timestamp — a k-way merge with ties to the lowest source index —
// record for record. MergeArrival must deliver every record exactly
// once with each source's order intact. In both modes every non-EOF
// terminal error must land in Err.
func FuzzMultiStreamMerge(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 5, 0, 0, 5, 0, 0, 5, 0, 0})          // three sources, identical timestamps
	f.Add([]byte{1, 0x45, 0xAA, 1, 0x8A, 0x0F, 2, 1, 2}) // one source over multiPrefetch, one failing
	f.Add([]byte{7, 0xC9, 0xFF, 3, 0x4F, 0x55, 0, 0x3F, 0, 1, 0x81, 0, 2, 9, 1, 0, 0x70, 0xF0, 3, 0x20, 1, 2, 0x7F, 0x33, 1})

	f.Fuzz(func(t *testing.T, raw []byte) {
		tmpl := fuzzSources(raw)
		var want []Record
		for _, s := range tmpl {
			want = append(want, s.recs...)
		}
		sort.SliceStable(want, func(a, b int) bool { return want[a].T < want[b].T })

		for _, mode := range []MergeMode{MergeByTime, MergeArrival} {
			srcs := make([]RecordSource, len(tmpl))
			for i := range tmpl {
				s := tmpl[i]
				srcs[i] = &s
			}
			ms := NewMultiStream(mode, false, srcs...)
			var got []Record
			for {
				rec, err := ms.Next()
				if err == io.EOF {
					break
				}
				if err != nil {
					t.Fatalf("mode %d: Next: %v", mode, err)
				}
				got = append(got, rec)
			}
			ms.Close()
			if len(got) != len(want) {
				t.Fatalf("mode %d: merged %d records, want %d", mode, len(got), len(want))
			}
			if mode == MergeByTime {
				for k := range got {
					if got[k].T != want[k].T || got[k].Sender != want[k].Sender || got[k].Size != want[k].Size {
						t.Fatalf("by-time record %d = (T %d, %v, #%d), want (T %d, %v, #%d)", k,
							got[k].T, got[k].Sender, got[k].Size, want[k].T, want[k].Sender, want[k].Size)
					}
				}
			} else {
				next := make(map[dot11.Addr]int)
				for k, r := range got {
					if r.Size != next[r.Sender] {
						t.Fatalf("arrival record %d from %v is #%d, want #%d (lost, duplicated or reordered)",
							k, r.Sender, r.Size, next[r.Sender])
					}
					next[r.Sender]++
				}
			}
			err := ms.Err()
			failing := 0
			for _, s := range tmpl {
				if s.err != nil {
					failing++
					if !errors.Is(err, s.err) {
						t.Fatalf("mode %d: Err = %v, missing %v", mode, err, s.err)
					}
				}
			}
			if failing == 0 && err != nil {
				t.Fatalf("mode %d: Err = %v, want nil", mode, err)
			}
		}
	})
}
