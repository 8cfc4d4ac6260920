package lsm

import (
	"fmt"
	"sync"
	"testing"
)

func TestConcurrentReadersAndWriters(t *testing.T) {
	m := &Metrics{}
	tr := openTest(t, Options{MemtableBytes: 8 << 10, MaxRuns: 3, Metrics: m})
	const writers, perWriter = 4, 500
	var wg sync.WaitGroup

	// Writers on disjoint key ranges.
	for w := 0; w < writers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				key := []byte(fmt.Sprintf("w%d-%05d", w, i))
				if err := tr.Put(key, []byte(fmt.Sprintf("v%d", i))); err != nil {
					t.Errorf("Put: %v", err)
					return
				}
			}
		}()
	}
	// Concurrent readers scanning and point-reading while writes flow
	// (and flushes/merges trigger underneath).
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if err := tr.Scan(nil, nil, func(k, v []byte) bool { return true }); err != nil {
					t.Errorf("Scan: %v", err)
					return
				}
				if _, _, err := tr.Get([]byte("w0-00000")); err != nil {
					t.Errorf("Get: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()

	n, err := tr.Len()
	if err != nil {
		t.Fatal(err)
	}
	if n != writers*perWriter {
		t.Fatalf("Len = %d, want %d", n, writers*perWriter)
	}
	// Every written key is readable with its final value.
	for w := 0; w < writers; w++ {
		for i := 0; i < perWriter; i += 97 {
			key := []byte(fmt.Sprintf("w%d-%05d", w, i))
			v, ok, err := tr.Get(key)
			if err != nil || !ok || string(v) != fmt.Sprintf("v%d", i) {
				t.Fatalf("Get(%s) = %q, %v, %v", key, v, ok, err)
			}
		}
	}
	if m.Flushes.Value() == 0 {
		t.Fatal("test never exercised a flush; lower MemtableBytes")
	}
}

func TestLargeValues(t *testing.T) {
	tr := openTest(t, Options{MemtableBytes: 1 << 20})
	big := make([]byte, 1<<18) // 256 KiB
	for i := range big {
		big[i] = byte(i)
	}
	if err := tr.Put([]byte("big"), big); err != nil {
		t.Fatal(err)
	}
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	got, ok, err := tr.Get([]byte("big"))
	if err != nil || !ok || len(got) != len(big) {
		t.Fatalf("Get(big) len=%d ok=%v err=%v", len(got), ok, err)
	}
	for i := range big {
		if got[i] != big[i] {
			t.Fatalf("big value corrupted at byte %d", i)
		}
	}
}

func TestEmptyKeyAndValue(t *testing.T) {
	tr := openTest(t, Options{})
	if err := tr.Put([]byte{}, []byte{}); err != nil {
		t.Fatal(err)
	}
	v, ok, err := tr.Get([]byte{})
	if err != nil || !ok || len(v) != 0 {
		t.Fatalf("Get(empty) = %q, %v, %v", v, ok, err)
	}
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := tr.Get([]byte{}); !ok {
		t.Fatal("empty key lost across flush")
	}
}
