package lsm

// batchOp is one mutation inside a Batch.
type batchOp struct {
	kind  walRecordKind
	key   []byte
	value []byte
}

// Batch collects a group of mutations for a single Tree.ApplyBatch call:
// one lock acquisition, one composite WAL record (single CRC, at most one
// fsync — group commit), and a sorted skiplist insertion pass that reuses
// the predecessor search across adjacent keys.
//
// Ownership: keys are copied, values are owned. The memtable copies each new
// key into memory it owns, so a key slice is the caller's again once
// ApplyBatch returns. A value is stored by reference: the tree takes
// ownership of every value slice handed to Put, and the caller must not
// modify it afterwards. Reset drops the references, making the Batch itself
// safe to reuse for the next frame.
type Batch struct {
	ops []batchOp
}

// NewBatch returns a batch pre-sized for n operations.
func NewBatch(n int) *Batch {
	return &Batch{ops: make([]batchOp, 0, n)}
}

// Put records an insert-or-replace of key with value.
func (b *Batch) Put(key, value []byte) {
	b.ops = append(b.ops, batchOp{kind: walPut, key: key, value: value})
}

// Delete records a tombstone for key.
func (b *Batch) Delete(key []byte) {
	b.ops = append(b.ops, batchOp{kind: walDelete, key: key})
}

// Len reports the number of operations in the batch.
func (b *Batch) Len() int { return len(b.ops) }

// Reset empties the batch, retaining capacity for reuse.
func (b *Batch) Reset() {
	for i := range b.ops {
		b.ops[i] = batchOp{}
	}
	b.ops = b.ops[:0]
}
