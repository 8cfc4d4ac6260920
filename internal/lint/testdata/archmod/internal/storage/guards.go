package storage

import "archmod/internal/adm"

// Manager is the fixture storage manager.
type Manager struct{}

// OpenPartition opens the node's first slot.
func (*Manager) OpenPartition() {}

// Partition is the fixture partition.
type Partition struct{}

func (p *Partition) unhookStored() {}

func check(rt *adm.RecordType) error { return rt.ValidateEncoded(nil) }
