package hyracks

// Cluster is the fixture cluster.
type Cluster struct{}

// JobEvent is a job lifecycle notice.
type JobEvent struct{}

// SubscribeJobs registers a job listener.
func (c *Cluster) SubscribeJobs(fn func(JobEvent)) {}
