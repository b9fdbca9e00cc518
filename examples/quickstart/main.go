// Quickstart: build a simulated Storage Tank installation, write a file
// on one client, read it from another (watching the lock demand and the
// dirty-data flush happen underneath), and print the protocol's costs.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"time"

	storagetank "repro"
)

func main() {
	// A 3-client, 2-disk installation of the paper's Figure 1: clients
	// and server on the control network, clients and disks on the SAN,
	// per-node clocks drifting within the rate bound ε. The zero-option
	// call uses the defaults; add storagetank.With* options to change
	// seeds, sizes, policy, or protocol parameters.
	cl := storagetank.NewClusterWith()
	cl.Start()
	cfg := storagetank.Resolve().Cluster.Core
	fmt.Printf("installation up: %d clients, %d disks, τ=%v, ε=%g\n\n",
		len(cl.Clients), len(cl.Disks), cfg.Tau, cfg.Bound.Eps)

	// Each client's SyncClient wraps the event-driven protocol client in
	// plain blocking calls; underneath, every call pumps the simulator.
	c0 := cl.SyncClient(0)
	c1 := cl.SyncClient(1)

	// Client 0 creates and writes a file. The write is WRITE-BACK: it
	// completes into the client cache under an exclusive data lock.
	h0, _, err := c0.Open("/hello.txt", true, true)
	if err != nil {
		log.Fatalf("open: %v", err)
	}
	payload := []byte("hello, network attached storage")
	if err := c0.WriteAt(h0, 0, payload); err != nil {
		log.Fatalf("write: %v", err)
	}
	fmt.Printf("client 0 wrote %d bytes (dirty pages in cache: %d)\n",
		len(payload), cl.Clients[0].Sub(0).Cache().TotalDirty())

	// Client 1 reads the same file. The server demands client 0's
	// exclusive lock down to shared; client 0 flushes its dirty page to
	// the SAN first, so client 1 reads the newest data from the disk.
	h1, _, err := c1.Open("/hello.txt", false, false)
	if err != nil {
		log.Fatalf("open: %v", err)
	}
	data, err := c1.ReadAt(h1, 0)
	if err != nil {
		log.Fatalf("read: %v", err)
	}
	fmt.Printf("client 1 read:  %q\n", data[:len(payload)])
	fmt.Printf("client 0 dirty pages after the demand: %d\n\n", cl.Clients[0].Sub(0).Cache().TotalDirty())

	// Let the installation idle for a while: lock and metadata traffic
	// stops, so the clients preserve their caches with keep-alives.
	cl.RunFor(30 * time.Second)

	fmt.Println("protocol costs so far:")
	fmt.Printf("  keep-alive messages:            %d (idle clients only)\n",
		cl.Reg.CounterValue("net.control.sent.keepalive"))
	fmt.Printf("  server lease operations:        %d\n",
		cl.Reg.CounterValue("server.authority.ops"))
	fmt.Printf("  server lease memory:            %d bytes\n",
		cl.Shards[0].Server.Authority().StateBytes())
	fmt.Printf("  file data moved through server: %d bytes\n",
		cl.Reg.CounterValue("server.data_bytes"))

	// And the oracle confirms the run was sequentially consistent.
	fmt.Printf("  consistency violations:         %d\n", len(cl.FinalCheck()))
}
