package hyracks

import "sync"

var framePool = sync.Pool{}
