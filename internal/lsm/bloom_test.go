package lsm

import (
	"slices"
	"testing"
)

// TestKeyFilterGolden pins the key hash and where a key's bits go: the line
// and the bits in it for fixed keys in a filter of four lines, read from the
// bitmap as a segment stores it (bit b of a line is bit b%8 of its byte b/8).
// Every format-04 segment on disk was built this way, so a change here would
// make its filter turn away keys it holds.
func TestKeyFilterGolden(t *testing.T) {
	for _, g := range []struct {
		key  string
		hash uint64
		line int
		bits []int
	}{
		{"", 0xf52a15e9a9b5e89b, 3, []int{133, 154, 155, 189, 215, 333, 465}},
		{"k", 0x8b51faabf1452e60, 2, []int{92, 96, 126, 191, 276, 341, 394}},
		{"key-00042", 0xb07f05534a0b60f7, 2, []int{45, 80, 170, 193, 247, 308, 449}},
		{"key00000-run0", 0x3989987cb21040e1, 0, []int{65, 102, 129, 225, 271, 400, 459}},
		{"\xff\x9e\x00", 0xdf9f4ea96932b6ab, 3, []int{150, 171, 202, 329, 365, 467, 469}},
	} {
		if h := keyHash([]byte(g.key)); h != g.hash {
			t.Errorf("keyHash(%q) = %#x, want %#x", g.key, h, g.hash)
		}
		f := newKeyFilter(200)
		if len(f.bits) != 4*filterLine {
			t.Fatalf("a filter for 200 keys has %d bytes, want 4 lines", len(f.bits))
		}
		f.add(keyHash([]byte(g.key)))
		line, bits := -1, []int(nil)
		for i, b := range f.bits {
			for j := 0; j < 8; j++ {
				if b&(1<<j) != 0 {
					line = i / filterLine
					bits = append(bits, 8*(i%filterLine)+j)
				}
			}
		}
		if line != g.line || !slices.Equal(bits, g.bits) {
			t.Errorf("%q sets bits %v of line %d, want %v of line %d", g.key, bits, line, g.bits, g.line)
		}
	}
}
