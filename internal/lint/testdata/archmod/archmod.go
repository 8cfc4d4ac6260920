// Package archmod is the fixture's root package.
package archmod

import "archmod/internal/storage"

// Insert opens its partition with OpenPartition.
func Insert(sm *storage.Manager) { sm.OpenPartition() }

// FeedStatus is a second view of a connection.
type FeedStatus struct{}
