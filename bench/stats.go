package main

import (
	"errors"
	"io/fs"
	"math"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// quantile is the q-quantile of sorted by linear interpolation between
// closest ranks; sorted is ascending and not empty.
func quantile(sorted []float64, q float64) float64 {
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

// sortedCopy returns vs in ascending order without disturbing vs.
func sortedCopy(vs []float64) []float64 {
	out := append([]float64(nil), vs...)
	sort.Float64s(out)
	return out
}

// quantileOf is quantile over unsorted durations, in the given unit; 0 when
// there are none.
func quantileOf(ds []time.Duration, q float64, unit time.Duration) float64 {
	if len(ds) == 0 {
		return 0
	}
	vs := make([]float64, len(ds))
	for i, d := range ds {
		vs[i] = float64(d) / float64(unit)
	}
	sort.Float64s(vs)
	return quantile(vs, q)
}

// quartiles returns the cut points statistics.quantiles(vs, n=4) gives in
// Python (the exclusive method), which is how a benchmark's spread is
// judged: (q3 − q1) ÷ median.
func quartiles(vs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(vs)
	n := len(s)
	cut := func(k int) float64 {
		pos := float64(k*(n+1)) / 4 // 1-based position
		j := int(pos)
		if j < 1 {
			return s[0]
		}
		if j >= n {
			return s[n-1]
		}
		return s[j-1] + (s[j]-s[j-1])*(pos-float64(j))
	}
	return cut(1), cut(2), cut(3)
}

// usage is what the process has consumed so far.
type usage struct {
	at      time.Time
	cpu     time.Duration // user + system
	mallocs uint64
	bytes   uint64 // cumulative bytes allocated
	gcs     uint32
}

func readUsage() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{
		at:      time.Now(),
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs: ms.Mallocs,
		bytes:   ms.TotalAlloc,
		gcs:     ms.NumGC,
	}
}

// dirBytes sums the sizes of the regular files under root. A file deleted
// while the walk is under way counts for nothing.
func dirBytes(root string) (int64, error) {
	var total int64
	err := filepath.WalkDir(root, func(_ string, d fs.DirEntry, err error) error {
		if err != nil {
			if errors.Is(err, fs.ErrNotExist) {
				return nil
			}
			return err
		}
		if d.Type().IsRegular() {
			info, err := d.Info()
			if errors.Is(err, fs.ErrNotExist) {
				return nil
			}
			if err != nil {
				return err
			}
			total += info.Size()
		}
		return nil
	})
	return total, err
}

// settledDirBytes is dirBytes once two readings 20 ms apart agree. A merge
// counts as done (no compaction debt) when its output is published, which
// is before its manifest record is synced and its inputs are deleted.
func settledDirBytes(root string) (int64, error) {
	last := int64(-1)
	for {
		n, err := dirBytes(root)
		if err != nil || n == last {
			return n, err
		}
		last = n
		time.Sleep(20 * tick)
	}
}
