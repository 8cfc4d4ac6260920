package core

// This file is the feedwatch surface of the Central Feed Manager: it
// publishes every connection's instrumentation into the manager's metric
// registry under "feed.<connection-id>.*" and assembles the FeedActivity
// snapshots served by the admin endpoint (/feeds) and the `show feeds`
// console verb — the runtime counterpart of the feed management console
// sketched in §7.2 / Appendix A of the paper.

import (
	"time"

	"asterixfeeds/internal/metrics"
)

// connMetricPrefix is the registry namespace of one connection's metrics.
func connMetricPrefix(id string) string { return "feed." + id }

// Registry exposes the manager's named-metric registry. Never nil.
func (m *Manager) Registry() *metrics.Registry { return m.registry }

// registerConnMetricsLocked publishes a connection's live instrumentation
// under its registry prefix. The window/counter/latency entries share the
// instances the pipeline operators already write to (zero extra cost on the
// hot path); the gauge entries are functions evaluated at read time, so a
// registry snapshot observes the current backlog rather than a stale copy.
// Reconnecting a torn-down connection re-registers the same names, which
// simply overwrites the stale entries.
func (m *Manager) registerConnMetricsLocked(conn *Connection) {
	p := connMetricPrefix(conn.id)
	r := m.registry
	r.RegisterWindow(p+".collected", conn.Metrics.Collected)
	r.RegisterWindow(p+".computed", conn.Metrics.Computed)
	r.RegisterWindow(p+".persisted", conn.Metrics.Persisted)
	r.RegisterCounter(p+".soft_failures", &conn.Metrics.SoftFailures)
	r.RegisterCounter(p+".store_errors", &conn.Metrics.StoreErrors)
	r.RegisterCounter(p+".replayed", &conn.Metrics.Replayed)
	r.RegisterCounter(p+".replay_dropped", &conn.Metrics.ReplayDropped)
	r.RegisterLatency(p+".latency", conn.Metrics.IngestionLatency)
	r.RegisterGaugeFunc(p+".backlog", func() int64 {
		return int64(m.connSubscriptionStats(conn).Backlog)
	})
	r.RegisterGaugeFunc(p+".pending_acks", func() int64 {
		return int64(conn.PendingAcks())
	})
	r.RegisterGaugeFunc(p+".spilled_bytes", func() int64 {
		return m.connSubscriptionStats(conn).SpilledBytes
	})
	r.RegisterGaugeFunc(p+".spill_errors", func() int64 {
		return m.connSubscriptionStats(conn).SpillErrors
	})
	r.RegisterGaugeFunc(p+".discarded", func() int64 {
		return m.connSubscriptionStats(conn).Discarded
	})
	r.RegisterGaugeFunc(p+".throttled_out", func() int64 {
		return m.connSubscriptionStats(conn).ThrottledOut
	})
	r.RegisterGaugeFunc(p+".governor.shed", func() int64 {
		return m.connSubscriptionStats(conn).GovernorShed
	})
	r.RegisterGaugeFunc(p+".governor.priority", func() int64 {
		return int64(conn.pol.Priority)
	})
}

// connSubscriptionStats aggregates the connection's intake-side policy
// counters across its partitions' subscriptions.
func (m *Manager) connSubscriptionStats(conn *Connection) SubscriptionStats {
	var total SubscriptionStats
	m.eachSubscription(conn, func(_ int, _ string, st SubscriptionStats) { total.add(st) })
	return total
}

// eachSubscription visits the connection's subscription at every intake
// partition that currently has one.
func (m *Manager) eachSubscription(conn *Connection, fn func(part int, node string, st SubscriptionStats)) {
	m.mu.Lock()
	var locs []string
	if p, ok := m.produced[conn.sourceSignature]; ok {
		locs = append(locs, p.locs...)
	}
	m.mu.Unlock()
	for part, loc := range locs {
		fm := m.feedManagerAt(loc)
		if fm == nil {
			continue
		}
		j, ok := fm.Joint(conn.sourceSignature, part)
		if !ok {
			continue
		}
		if s, ok := j.Subscription(conn.subID); ok {
			fn(part, loc, s.Stats())
		}
	}
}

// PartitionActivity is one intake partition's live subscription counters.
type PartitionActivity struct {
	Partition int    `json:"partition"`
	Node      string `json:"node"`
	SubscriptionStats
}

// FeedActivity is one connection's monitoring snapshot: lifecycle state,
// stage placement, throughput rates, policy counters, and per-partition
// backlog. The admin endpoint serves it as JSON; `show feeds` renders it.
type FeedActivity struct {
	Connection string `json:"connection"`
	Feed       string `json:"feed"`
	Dataset    string `json:"dataset"`
	Policy     string `json:"policy"`
	State      string `json:"state"`
	Error      string `json:"error,omitempty"`

	IntakeNodes  []string `json:"intakeNodes"`
	ComputeNodes []string `json:"computeNodes"`
	StoreNodes   []string `json:"storeNodes"`
	ComputeCount int      `json:"computeCount"`

	CollectedTotal int64   `json:"collectedTotal"`
	ComputedTotal  int64   `json:"computedTotal"`
	PersistedTotal int64   `json:"persistedTotal"`
	CollectRate    float64 `json:"collectRate"`
	ComputeRate    float64 `json:"computeRate"`
	PersistRate    float64 `json:"persistRate"`

	Backlog       int    `json:"backlog"`
	PendingAcks   int    `json:"pendingAcks"`
	SoftFailures  int64  `json:"softFailures"`
	StoreErrors   int64  `json:"storeErrors"`
	Replayed      int64  `json:"replayed"`
	ReplayDropped int64  `json:"replayDropped"`
	Discarded     int64  `json:"discarded"`
	ThrottledOut  int64  `json:"throttledOut"`
	SpilledTotal  int64  `json:"spilledTotal"`
	SpilledBytes  int64  `json:"spilledBytes"`
	SpillErrors   int64  `json:"spillErrors"`
	GovernorShed  int64  `json:"governorShed"`
	Priority      string `json:"priority"`

	LatencyP50 time.Duration `json:"latencyP50Ns"`
	LatencyP99 time.Duration `json:"latencyP99Ns"`

	ElasticEvents []string            `json:"elasticEvents,omitempty"`
	Partitions    []PartitionActivity `json:"partitions,omitempty"`
}

// FeedActivity assembles a monitoring snapshot for every known connection,
// sorted by connection id. Disconnected and failed connections appear with
// their final counters, so a console can show what a feed did before it
// stopped.
func (m *Manager) FeedActivity() []FeedActivity {
	conns := m.Connections()
	out := make([]FeedActivity, 0, len(conns))
	for _, c := range conns {
		out = append(out, m.feedActivityOf(c))
	}
	return out
}

func (m *Manager) feedActivityOf(c *Connection) FeedActivity {
	intake, compute, store := c.Locations()
	a := FeedActivity{
		Connection:   c.ID(),
		Feed:         c.Feed().QualifiedName(),
		Dataset:      c.Dataset().QualifiedName(),
		Policy:       c.Policy().Name,
		Priority:     c.Policy().Priority.String(),
		State:        c.State().String(),
		IntakeNodes:  intake,
		ComputeNodes: compute,
		StoreNodes:   store,
		ComputeCount: c.ComputeCount(),

		CollectedTotal: c.Metrics.Collected.Total(),
		ComputedTotal:  c.Metrics.Computed.Total(),
		PersistedTotal: c.Metrics.Persisted.Total(),
		CollectRate:    c.Metrics.Collected.LatestRate(),
		ComputeRate:    c.Metrics.Computed.LatestRate(),
		PersistRate:    c.Metrics.Persisted.LatestRate(),

		PendingAcks:   c.PendingAcks(),
		SoftFailures:  c.Metrics.SoftFailures.Value(),
		StoreErrors:   c.Metrics.StoreErrors.Value(),
		Replayed:      c.Metrics.Replayed.Value(),
		ReplayDropped: c.Metrics.ReplayDropped.Value(),

		LatencyP50: c.Metrics.IngestionLatency.Quantile(0.5),
		LatencyP99: c.Metrics.IngestionLatency.Quantile(0.99),

		ElasticEvents: c.ElasticEvents(),
	}
	if err := c.Err(); err != nil {
		a.Error = err.Error()
	}
	var sum SubscriptionStats
	m.eachSubscription(c, func(part int, node string, st SubscriptionStats) {
		a.Partitions = append(a.Partitions, PartitionActivity{Partition: part, Node: node, SubscriptionStats: st})
		sum.add(st)
	})
	a.Backlog, a.Discarded, a.ThrottledOut = sum.Backlog, sum.Discarded, sum.ThrottledOut
	a.SpilledTotal, a.SpilledBytes, a.SpillErrors, a.GovernorShed = sum.SpilledTotal, sum.SpilledBytes, sum.SpillErrors, sum.GovernorShed
	return a
}
