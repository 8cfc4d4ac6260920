package lsm

import (
	"bufio"
	"os"
)

func newWAL(f *os.File) *bufio.Writer { return bufio.NewWriter(f) }
