package main

import (
	"fmt"
	"io"
	"net"
	"sort"
	"sync"
	"time"
)

// A yardstick measures how fast this machine is right now, in the currency
// the installation spends: small messages over loopback TCP between
// goroutines, each a send, a netpoll wake-up and a receive. It is made of
// the standard library alone, so no change to the program under test moves
// it. The runner takes a reading between every two windows; a window's
// figures set against the readings around it are what is left of them
// when the shared host's speed — which drifts by a third within minutes —
// is taken out.
type yardstick struct {
	pairs []net.Conn // the pinging ends
	wg    sync.WaitGroup
	lis   net.Listener
}

const (
	yardPairs = 2 // one per core, like the drivers
	yardMsg   = 64
)

func newYardstick() (*yardstick, error) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	y := &yardstick{lis: lis}
	for i := 0; i < yardPairs; i++ {
		accepted := make(chan net.Conn, 1)
		go func() {
			c, _ := lis.Accept()
			accepted <- c
		}()
		c, err := net.Dial("tcp", lis.Addr().String())
		if err != nil {
			y.close()
			return nil, err
		}
		y.pairs = append(y.pairs, c)
		peer := <-accepted
		if peer == nil {
			y.close()
			return nil, fmt.Errorf("yardstick: accept failed")
		}
		y.wg.Add(1)
		go func() { // echo until the pinging end closes
			defer y.wg.Done()
			defer peer.Close()
			buf := make([]byte, yardMsg)
			for {
				if _, err := io.ReadFull(peer, buf); err != nil {
					return
				}
				if _, err := peer.Write(buf); err != nil {
					return
				}
			}
		}()
	}
	return y, nil
}

func (y *yardstick) close() {
	for _, c := range y.pairs {
		c.Close()
	}
	y.lis.Close()
	y.wg.Wait()
}

// reading is what the yardstick showed: how many round trips a second it
// made, all pairs together, and how long the median one took. The first
// scales rates, the second latencies: when the host takes the CPU away for
// a few milliseconds at a time, fewer operations complete but the median
// one is no slower, and the yardstick's two figures part the same way.
type reading struct {
	perSec float64
	p50US  float64
}

// mean is the reading halfway between two.
func mean(a, b reading) reading {
	return reading{(a.perSec + b.perSec) / 2, (a.p50US + b.p50US) / 2}
}

// read pings on every pair at once for d.
func (y *yardstick) read(d time.Duration) reading {
	var (
		wg    sync.WaitGroup
		trips = make([][]time.Duration, len(y.pairs))
	)
	start := time.Now()
	for i, c := range y.pairs {
		wg.Add(1)
		go func(i int, c net.Conn) {
			defer wg.Done()
			buf := make([]byte, yardMsg)
			for sent := start; sent.Sub(start) < d; {
				if _, err := c.Write(buf); err != nil {
					return
				}
				if _, err := io.ReadFull(c, buf); err != nil {
					return
				}
				now := time.Now()
				trips[i] = append(trips[i], now.Sub(sent))
				sent = now
			}
		}(i, c)
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	var all []time.Duration
	for _, t := range trips {
		all = append(all, t...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	return reading{float64(len(all)) / elapsed, float64(percentile(all, 50)) / 1e3}
}
