package hyracks

import (
	"fmt"
	"sync/atomic"
)

// OperatorID identifies an operator within a job specification.
type OperatorID int

// JobID identifies a submitted job within a cluster.
type JobID int64

var jobIDCounter atomic.Int64

func nextJobID() JobID { return JobID(jobIDCounter.Add(1)) }

// PartitionConstraint restricts where and how widely an operator's tasks run,
// mirroring Hyracks' count and (absolute) location constraints.
type PartitionConstraint struct {
	// Locations pins task i to node Locations[i]. When set, Count is
	// ignored and the task count equals len(Locations).
	Locations []string
	// Count requests that many tasks placed on distinct live nodes chosen
	// by the cluster controller. Zero means one task per live node.
	Count int
}

// CountConstraint returns a constraint for n tasks on controller-chosen nodes.
func CountConstraint(n int) PartitionConstraint { return PartitionConstraint{Count: n} }

// LocationConstraint returns a constraint pinning tasks to the given nodes.
func LocationConstraint(nodes ...string) PartitionConstraint {
	return PartitionConstraint{Locations: nodes}
}

// TaskContext carries per-task environment to operator runtimes.
type TaskContext struct {
	// JobID identifies the running job.
	JobID JobID
	// NodeID names the node this task runs on.
	NodeID string
	// Partition is this task's index in [0, NumPartitions).
	Partition int
	// NumPartitions is the operator's degree of parallelism.
	NumPartitions int
	// Node exposes node-local services (storage manager, feed manager).
	Node *NodeController
	// Canceled is closed when the job is canceled or the node dies; long
	// running source operators must select on it.
	Canceled <-chan struct{}
}

// Service returns the named node-local service, or nil.
func (c *TaskContext) Service(name string) any { return c.Node.Service(name) }

// OperatorDescriptor describes an operator: a partitioned-parallel
// computation step. At activation the descriptor creates one runtime per
// partition.
type OperatorDescriptor interface {
	// Name returns a human-readable operator name for logs and tests.
	Name() string
	// CreateRuntime instantiates this operator's runtime for one
	// partition. The runtime receives input frames via its Writer
	// methods; output must be forwarded to out.
	CreateRuntime(ctx *TaskContext, out Writer) (OperatorRuntime, error)
}

// OperatorRuntime is one task: the per-partition instantiation of an
// operator. Inner and sink operators consume input through the embedded
// Writer interface. Source operators (no inbound connector) additionally
// implement SourceRuntime.
type OperatorRuntime interface {
	Writer
}

// SourceRuntime is implemented by runtimes of source operators, which
// generate data instead of consuming it. Run must return when ctx.Canceled
// is closed, after calling Close (or Fail) on its output writer.
type SourceRuntime interface {
	OperatorRuntime
	// Run drives the source until end of data or cancellation.
	Run() error
}

// ConnectorStrategy determines how producer partitions route records to
// consumer partitions.
type ConnectorStrategy int

// Connector strategies, mirroring the connectors used by the paper's
// ingestion pipelines (§5.2).
const (
	// OneToOne connects producer partition i to consumer partition i.
	// Producer and consumer must have equal partition counts and
	// co-located tasks.
	OneToOne ConnectorStrategy = iota
	// MToNHashPartition routes each record to the consumer partition
	// selected by hashing the record's key (via the connector's KeyHash).
	MToNHashPartition
	// MToNRandomPartition routes records round-robin across consumer
	// partitions.
	MToNRandomPartition
)

// Connector joins a producer operator to a consumer operator.
type Connector struct {
	// From and To are operator ids within the same JobSpec.
	From, To ConnPort
	// Strategy selects the routing policy.
	Strategy ConnectorStrategy
	// KeyHash extracts the partitioning hash from a serialized record;
	// required for MToNHashPartition.
	KeyHash func(rec []byte) uint64
}

// ConnPort names an operator endpoint of a connector.
type ConnPort struct {
	Op OperatorID
}

// JobSpec is a dataflow DAG of operators and connectors.
type JobSpec struct {
	// Name is a human-readable job label.
	Name string
	ops  []specOp
	conn []Connector
}

type specOp struct {
	desc       OperatorDescriptor
	constraint PartitionConstraint
}

// AddOperator adds an operator with its partition constraint and returns its
// id.
func (s *JobSpec) AddOperator(desc OperatorDescriptor, pc PartitionConstraint) OperatorID {
	s.ops = append(s.ops, specOp{desc: desc, constraint: pc})
	return OperatorID(len(s.ops) - 1)
}

// Connect joins producer from to consumer to using the given strategy.
func (s *JobSpec) Connect(from, to OperatorID, strategy ConnectorStrategy, keyHash func([]byte) uint64) {
	s.conn = append(s.conn, Connector{
		From:     ConnPort{Op: from},
		To:       ConnPort{Op: to},
		Strategy: strategy,
		KeyHash:  keyHash,
	})
}

// Validate checks structural well-formedness of the spec.
func (s *JobSpec) Validate() error {
	if len(s.ops) == 0 {
		return fmt.Errorf("hyracks: job %q has no operators", s.Name)
	}
	inbound := make(map[OperatorID]int)
	outbound := make(map[OperatorID]int)
	for _, c := range s.conn {
		if int(c.From.Op) >= len(s.ops) || int(c.To.Op) >= len(s.ops) {
			return fmt.Errorf("hyracks: job %q connector references unknown operator", s.Name)
		}
		if c.From.Op == c.To.Op {
			return fmt.Errorf("hyracks: job %q has a self-loop on operator %d", s.Name, c.From.Op)
		}
		if c.Strategy == MToNHashPartition && c.KeyHash == nil {
			return fmt.Errorf("hyracks: job %q hash connector without KeyHash", s.Name)
		}
		inbound[c.To.Op]++
		outbound[c.From.Op]++
	}
	for to, n := range inbound {
		if n > 1 {
			return fmt.Errorf("hyracks: job %q operator %d has %d inbound connectors; at most 1 supported", s.Name, to, n)
		}
	}
	for from, n := range outbound {
		if n > 1 {
			return fmt.Errorf("hyracks: job %q operator %d has %d outbound connectors; at most 1 supported", s.Name, from, n)
		}
	}
	return nil
}

// NumOperators reports the number of operators in the spec.
func (s *JobSpec) NumOperators() int { return len(s.ops) }

// Operator returns the i-th operator descriptor.
func (s *JobSpec) Operator(id OperatorID) OperatorDescriptor { return s.ops[id].desc }

// JobStatus is the lifecycle state of a job.
type JobStatus int

// Job lifecycle states.
const (
	JobPending JobStatus = iota
	JobRunning
	JobFinished
	JobFailed
	JobCanceled
)

// String implements fmt.Stringer.
func (s JobStatus) String() string {
	switch s {
	case JobPending:
		return "pending"
	case JobRunning:
		return "running"
	case JobFinished:
		return "finished"
	case JobFailed:
		return "failed"
	case JobCanceled:
		return "canceled"
	default:
		return "unknown"
	}
}
