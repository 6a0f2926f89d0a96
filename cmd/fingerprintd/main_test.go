package main

import (
	"testing"
	"time"

	"dot11fp/internal/cmdutil"
)

// TestOffsetStamp pins the window-bound rendering: offsets into the
// merged stream for several sources or a rebased one, the capture's
// wall clock for a single source read as recorded.
func TestOffsetStamp(t *testing.T) {
	cases := map[int64]string{
		0:             "0s",
		1_000_000:     "1s",
		90_000_000:    "1m30s",
		90_400_000:    "1m30s", // sub-second offsets round to whole seconds
		3_600_000_000: "1h0m0s",
	}
	for us, want := range cases {
		if got := offsetStamp(us); got != want {
			t.Errorf("offsetStamp(%d) = %q, want %q", us, got, want)
		}
	}

	base := func() time.Time { return time.Date(2012, 6, 18, 14, 59, 30, 0, time.UTC) }
	wall := map[int64]string{
		0:          "14:59:30",
		30_000_000: "15:00:00",
		90_400_000: "15:01:00", // wall stamps truncate to the second
	}
	for _, tc := range []struct {
		name    string
		sources int
		rebase  bool
		want    map[int64]string
	}{
		{"one source", 1, false, wall},
		{"one rebased source", 1, true, cases},
		{"two sources", 2, false, cases},
		{"two rebased sources", 2, true, cases},
	} {
		stamp := windowStamp(tc.sources, tc.rebase, base)
		for us, want := range tc.want {
			if got := stamp(us); got != want {
				t.Errorf("%s: stamp(%d) = %q, want %q", tc.name, us, got, want)
			}
		}
	}
}

// TestFlagValidation is the table-driven check of the daemon's flag
// cluster semantics, via the shared validators the main wires together.
func TestFlagValidation(t *testing.T) {
	if err := (cmdutil.EnrollFlags{Enroll: true, Windows: 2}).Validate(); err != nil {
		t.Errorf("-enroll -enroll-windows 2 rejected: %v", err)
	}
	if err := (cmdutil.EnrollFlags{Enroll: false, Windows: 2}).Validate(); err == nil {
		t.Error("-enroll-windows without -enroll accepted")
	}
	if _, err := cmdutil.ParseMergeMode("time"); err != nil {
		t.Errorf("-merge time rejected: %v", err)
	}
	if _, err := cmdutil.ParseMergeMode("never"); err == nil {
		t.Error("-merge never accepted")
	}
	if err := cmdutil.CheckSavePath(t.TempDir() + "/ck.fpdb"); err != nil {
		t.Errorf("-save into a writable directory rejected: %v", err)
	}
	if err := cmdutil.CheckSavePath(t.TempDir() + "/no/such/dir/ck.fpdb"); err == nil {
		t.Error("-save into a missing directory accepted")
	}
	if err := cmdutil.CheckSavePath(t.TempDir()); err == nil {
		t.Error("-save pointing at a directory accepted")
	}
}
