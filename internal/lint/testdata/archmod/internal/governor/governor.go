// Package governor must not read a clock.
package governor

import "time"

// Now reads one anyway.
func Now() time.Time { return time.Now() }
