package lsm

// Stall waives lockorder, which internal/lsm must never need.
//
//feedlint:allow lockorder -- refused in internal/lsm
func Stall() {}

type bloomFilter struct{}

func seal() {}

// BlockCache is the fixture block cache; put is refused.
type BlockCache struct{}

func (c *BlockCache) put() {}
