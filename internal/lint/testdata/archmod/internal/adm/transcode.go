package adm

// Transcode hands its line to Parse again.
func Transcode(s string) int { return Parse(s) }
