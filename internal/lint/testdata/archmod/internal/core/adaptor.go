package core

import (
	"bufio"
	"net"
	"sync"
)

var frames sync.Pool

type tracker struct {
	replayCh chan int
}

func scan(conn net.Conn) *bufio.Scanner { return bufio.NewScanner(conn) }
