// Command feedlint is the fixture's lint command: a -faststd switch is
// refused.
package main

func main() {
	fastStd := false
	_ = fastStd
}
