// Package metrics is the fixture metrics registry.
package metrics

// Registry is the fixture registry.
type Registry struct{}

// Counter is the fixture counter.
type Counter struct{}

// RegisterCounter publishes an owned counter.
func (r *Registry) RegisterCounter(name string, c *Counter) {}

// Counter gets or creates a counter.
func (r *Registry) Counter(name string) *Counter { return nil }
