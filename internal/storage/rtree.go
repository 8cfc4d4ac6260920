package storage

import (
	"encoding/binary"
	"math"

	"asterixfeeds/internal/adm"
)

// The spatial secondary index is a grid-file approximation of AsterixDB's
// LSM R-tree: the plane is divided into fixed-size cells, each point is
// keyed by its (cell, exact coordinates, primary key), and a rectangle query
// scans the key ranges of every cell the rectangle covers, filtering by the
// embedded exact coordinates. This preserves the R-tree's query semantics
// (exact rectangle containment) with LSM-friendly sorted-key storage.

// rtreeCellSize is the grid resolution in coordinate units (degrees for
// geo data). One degree keeps cell counts small for the paper's US-bounding
// -box queries while still pruning effectively.
const rtreeCellSize = 1.0

// cell identifies one grid cell.
type cell struct {
	X, Y int32
}

// cellOf maps a point to its grid cell.
func cellOf(p adm.Point) cell {
	return cell{
		X: int32(math.Floor(p.X / rtreeCellSize)),
		Y: int32(math.Floor(p.Y / rtreeCellSize)),
	}
}

// appendCellPrefix appends a cell's order-preserving 8-byte key prefix.
func appendCellPrefix(dst []byte, c cell) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(c.X)^0x80000000)
	return binary.BigEndian.AppendUint32(dst, uint32(c.Y)^0x80000000)
}

// cellsCovering enumerates the grid cells intersecting rect.
func cellsCovering(rect adm.Rectangle) []cell {
	lo := cellOf(rect.Low)
	hi := cellOf(rect.High)
	var out []cell
	for x := lo.X; x <= hi.X; x++ {
		for y := lo.Y; y <= hi.Y; y++ {
			out = append(out, cell{X: x, Y: y})
		}
	}
	return out
}

// pointFromRTreeKey recovers the exact point embedded in an rtree index key
// (8 bytes cell prefix + 16 bytes coordinates + pk).
func pointFromRTreeKey(key []byte) (adm.Point, bool) {
	if len(key) < 24 {
		return adm.Point{}, false
	}
	x := math.Float64frombits(binary.BigEndian.Uint64(key[8:16]))
	y := math.Float64frombits(binary.BigEndian.Uint64(key[16:24]))
	return adm.Point{X: x, Y: y}, true
}
