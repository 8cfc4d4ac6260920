package core

import (
	"errors"
	"path/filepath"
	"testing"

	"asterixfeeds/internal/hyracks"
)

// drainAll drains the subscription, as a graceful disconnect does, and
// consumes every remaining frame (memory and spill), returning the delivered
// record count.
func drainAll(s *Subscription) int64 {
	s.drainAndClose()
	stop := make(chan struct{})
	var delivered int64
	for {
		f, ok := s.Next(stop)
		if !ok {
			break
		}
		delivered += int64(f.Len())
	}
	return delivered
}

// Every policy must satisfy the SubscriptionStats ledger at drain:
// Received == delivered + Discarded + ThrottledOut + GovernorShed — records
// are delivered, dropped by an explicit policy action, shed by the ingestion
// governor, or still counted; never silently lost. Spill is not a loss term:
// spilled records come back.
func TestSubscriptionStatsDrainInvariant(t *testing.T) {
	const offered = 500
	cases := []struct {
		name  string
		pol   *Policy
		spill bool
	}{
		{"Basic", &Policy{MemoryBudgetRecords: 10}, false},
		{"Discard", &Policy{MemoryBudgetRecords: 10, Discard: true}, false},
		{"Throttle", &Policy{MemoryBudgetRecords: 50, Throttle: true, ThrottleMinRatio: 0.05}, false},
		{"Spill", &Policy{MemoryBudgetRecords: 10, Spill: true}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			j := newJoint("feeds.F", 0)
			path := ""
			if tc.spill {
				path = filepath.Join(t.TempDir(), "sub.spill")
			}
			s, err := j.Subscribe("c", tc.pol, path)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < offered; i++ {
				f := hyracks.NewFrame(1)
				f.Append([]byte{byte(i)})
				j.Deposit(f)
			}
			if tc.spill {
				pre := s.Stats()
				if pre.SpilledTotal == 0 || pre.SpilledFrames == 0 {
					t.Fatalf("spill policy did not spill under overload: %+v", pre)
				}
				// Every deposited frame held one record, so the frames
				// currently parked on disk account for exactly
				// SpilledTotal minus the records already replayed:
				// offered = in-memory backlog + on-disk frames + replayed.
				if pre.Backlog+pre.SpilledFrames > offered {
					t.Fatalf("backlog %d + spilled frames %d exceeds %d offered",
						pre.Backlog, pre.SpilledFrames, offered)
				}
			}

			delivered := drainAll(s)
			st := s.Stats()
			if st.Received != offered {
				t.Fatalf("Received = %d, want %d (every offered record counted)", st.Received, offered)
			}
			if st.Received != delivered+st.Discarded+st.ThrottledOut+st.GovernorShed {
				t.Fatalf("ledger violated: Received %d != delivered %d + Discarded %d + ThrottledOut %d + GovernorShed %d",
					st.Received, delivered, st.Discarded, st.ThrottledOut, st.GovernorShed)
			}
			if st.SpillErrors != 0 {
				t.Fatalf("SpillErrors = %d without injected faults", st.SpillErrors)
			}
			if tc.spill {
				if delivered != offered {
					t.Fatalf("spill policy delivered %d of %d (spilling must not lose records)", delivered, offered)
				}
				if st.SpilledFrames != 0 || st.SpilledBytes != 0 {
					t.Fatalf("spill file not fully replayed at drain: %d frames, %d bytes",
						st.SpilledFrames, st.SpilledBytes)
				}
			}
		})
	}
}

// A spill-file write failure must not drop the frame: it falls back to
// in-memory buffering, increments SpillErrors, and every record remains
// deliverable. Regression for the bug where spill.push errors were
// silently swallowed.
func TestSubscriptionSpillErrorFallsBackToMemory(t *testing.T) {
	j := newJoint("feeds.F", 0)
	pol := &Policy{MemoryBudgetRecords: 10, Spill: true}
	s, err := j.Subscribe("c", pol, filepath.Join(t.TempDir(), "sub.spill"))
	if err != nil {
		t.Fatal(err)
	}
	injected := errors.New("injected spill failure")
	var points []string
	s.SetSpillFault(func(point string) error {
		points = append(points, point)
		return injected
	})

	const offered = 100
	for i := 0; i < offered; i++ {
		f := hyracks.NewFrame(1)
		f.Append([]byte{byte(i)})
		j.Deposit(f)
	}
	st := s.Stats()
	if st.SpillErrors == 0 {
		t.Fatal("spill write failures were not counted")
	}
	if st.SpilledTotal != 0 {
		t.Fatalf("SpilledTotal = %d, want 0 (every push failed)", st.SpilledTotal)
	}
	if st.Backlog != offered {
		t.Fatalf("backlog = %d, want %d (failed spills must buffer in memory)", st.Backlog, offered)
	}
	if len(points) == 0 || points[0] != "spill:push" {
		t.Fatalf("fault hook saw points %v, want spill:push", points)
	}

	if delivered := drainAll(s); delivered != offered {
		t.Fatalf("delivered %d of %d records after spill failures", delivered, offered)
	}
}
