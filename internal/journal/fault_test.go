package journal

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"syscall"
	"testing"

	"fnpr/internal/fsfault"
	"fnpr/internal/guard"
	"fnpr/internal/obs"
)

func counter(name string) int64 { return obs.Default().Counter(name).Value() }

// TestSyncPolicy pins the -sync policy semantics via the journal.syncs
// counter: SyncEvery=1 fsyncs per append (WAL semantics), SyncEvery=N every
// Nth record, the default only on Sync/Close.
func TestSyncPolicy(t *testing.T) {
	for _, tc := range []struct {
		every     int
		appends   int64
		wantSyncs int64 // before Close
	}{
		{0, 5, 0},
		{1, 5, 5},
		{3, 7, 2},
	} {
		t.Run(fmt.Sprintf("every=%d", tc.every), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "j.log")
			j, _, err := OpenWith(path, Options{SyncEvery: tc.every})
			if err != nil {
				t.Fatal(err)
			}
			base := counter("journal.syncs")
			for i := int64(0); i < tc.appends; i++ {
				if err := j.Append(fmt.Sprintf("k-%d", i), point{Q: float64(i)}); err != nil {
					t.Fatal(err)
				}
			}
			if got := counter("journal.syncs") - base; got != tc.wantSyncs {
				t.Fatalf("after %d appends: %d syncs, want %d", tc.appends, got, tc.wantSyncs)
			}
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
			_, recs, err := Open(path)
			if err != nil {
				t.Fatal(err)
			}
			if int64(len(recs)) != tc.appends {
				t.Fatalf("replayed %d records, want %d", len(recs), tc.appends)
			}
		})
	}
}

// TestFaultMatrix drives every fsfault class through the journal and asserts
// the durability contract end to end: each injected fault is either fully
// recovered at the next Open (torn/corrupt tail truncated, valid prefix
// replayed byte-identically) or surfaced as a typed guard.ErrStorage error —
// never silent corruption, never a lost intact record.
func TestFaultMatrix(t *testing.T) {
	// Writes: 1 = header, 2..4 = records. Each subcase targets record 3
	// (write ordinal 4 is record #3; ordinal 3 is record #2).
	cases := []struct {
		name string
		plan fsfault.Plan
		sync int
		// appendErr: the sentinel Append (or Sync) must wrap, nil if the
		// fault is silent at write time.
		appendErr error
		// survivors: how many of the 3 appended records the next Open must
		// replay.
		survivors int
		truncates bool
	}{
		{
			name:      "enospc-write-refused",
			plan:      fsfault.Plan{FailWrite: 4}, // record #3 never reaches disk
			appendErr: syscall.ENOSPC, survivors: 2, truncates: false,
		},
		{
			name:      "short-write-torn-tail",
			plan:      fsfault.Plan{ShortWrite: 4}, // record #3 half-persisted
			appendErr: io.ErrShortWrite, survivors: 2, truncates: true,
		},
		{
			name:      "bit-flip-silent-corruption",
			plan:      fsfault.Plan{FlipBit: 4, FlipBitIndex: 40}, // record #3 corrupt on disk
			appendErr: nil, survivors: 2, truncates: true,
		},
		{
			name: "fsync-eio",
			plan: fsfault.Plan{FailSync: 1}, sync: 1, // record #3's WAL fsync fails
			appendErr: syscall.EIO, survivors: 3, truncates: false,
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "j.log")
			in := fsfault.NewInjector(nil, tc.plan)
			sync := tc.sync
			if tc.name == "fsync-eio" {
				// Only the last append syncs: policy every-3rd record.
				sync = 3
			}
			j, _, err := OpenWith(path, Options{SyncEvery: sync, FS: in})
			if err != nil {
				t.Fatal(err)
			}
			var lastErr error
			for i := 1; i <= 3; i++ {
				if err := j.Append(fmt.Sprintf("rec-%d", i), point{Q: float64(i)}); err != nil {
					lastErr = err
				}
			}
			j.Close()
			if in.Fired() != 1 {
				t.Fatalf("injected %d faults, want exactly 1", in.Fired())
			}

			if tc.appendErr != nil {
				if lastErr == nil {
					t.Fatalf("fault was silent; want an error wrapping %v", tc.appendErr)
				}
				if !errors.Is(lastErr, guard.ErrStorage) {
					t.Fatalf("fault error %v is not typed guard.ErrStorage", lastErr)
				}
				if !errors.Is(lastErr, tc.appendErr) {
					t.Fatalf("fault error %v does not preserve the disk cause %v", lastErr, tc.appendErr)
				}
			} else if lastErr != nil {
				t.Fatalf("silent fault surfaced at write time: %v", lastErr)
			}

			// Recovery: reopen (real fs — the fault already happened) and
			// demand the valid prefix, bit-exact, and the truncation
			// bookkeeping.
			baseTrunc := counter("journal.truncations")
			j2, recs, err := Open(path)
			if err != nil {
				t.Fatalf("reopen after fault: %v", err)
			}
			if len(recs) != tc.survivors {
				t.Fatalf("replayed %d records, want %d", len(recs), tc.survivors)
			}
			for i, r := range recs {
				var got point
				ok, err := Get(Latest(recs[:i+1]), r.Key, &got)
				if !ok || err != nil || got.Q != float64(i+1) {
					t.Fatalf("record %d corrupt after recovery: %+v ok=%v err=%v", i, got, ok, err)
				}
			}
			gotTrunc := counter("journal.truncations") - baseTrunc
			if tc.truncates && gotTrunc != 1 {
				t.Fatalf("journal.truncations advanced %d, want 1", gotTrunc)
			}
			if !tc.truncates && gotTrunc != 0 {
				t.Fatalf("journal.truncations advanced %d, want 0", gotTrunc)
			}
			// The recovered journal accepts appends and stays fully valid.
			if err := j2.Append("after", point{Q: 99}); err != nil {
				t.Fatal(err)
			}
			j2.Close()
			_, recs3, err := Open(path)
			if err != nil {
				t.Fatal(err)
			}
			if len(recs3) != tc.survivors+1 {
				t.Fatalf("after recovery append: %d records, want %d", len(recs3), tc.survivors+1)
			}
		})
	}
}

// TestSalvageRewriteFaulted injects a disk fault into the salvage rewrite
// itself (the temp-file path of a torn-tail recovery): the open must fail
// with a typed storage error and must NOT install a half-written journal
// over the original bytes.
func TestSalvageRewriteFaulted(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.log")
	j, _, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append("good", point{Q: 1}); err != nil {
		t.Fatal(err)
	}
	j.Close()
	intact, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Torn tail on disk...
	if err := os.WriteFile(path, append(append([]byte(nil), intact...), `deadbeef {"k":"torn`...), 0o644); err != nil {
		t.Fatal(err)
	}
	// ...and a disk that refuses the salvage write (write 1 is the temp
	// file's payload — reads are not writes).
	in := fsfault.NewInjector(nil, fsfault.Plan{FailWrite: 1})
	_, _, err = OpenWith(path, Options{FS: in})
	if !errors.Is(err, guard.ErrStorage) || !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("faulted salvage: err %v, want guard.ErrStorage wrapping ENOSPC", err)
	}
	// The original file is untouched; a later open on a healthy disk
	// salvages normally.
	j2, recs, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if len(recs) != 1 || recs[0].Key != "good" {
		t.Fatalf("post-fault salvage replayed %v", recs)
	}
}
