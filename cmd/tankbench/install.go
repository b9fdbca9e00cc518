package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/blockstore"
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/meta"
	"repro/internal/msg"
	"repro/internal/rpcnet"
	"repro/internal/server"
	"repro/internal/stats"
)

// The pinned configuration. Every workload runs on the same installation
// — one authority, two disks, two clients — and differs only in
// metaPersist; a benchmark whose configuration moved between runs would
// compare nothing.
const (
	serverID     msg.NodeID = 1
	firstClient  msg.NodeID = 10
	firstDisk    msg.NodeID = 1000
	nClients                = 2
	nDisks                  = 2
	diskBlocks              = 1 << 16 // 256 MiB per disk
	cacheQuota              = 4 << 20 // bytes per client
	opTimeout               = 30 * time.Second
	bootTimeout             = 10 * time.Second
	snapshotFile            = "meta.json"
)

func clientConfig() client.Config {
	return client.Config{Core: core.DefaultConfig(), CacheQuota: cacheQuota}
}

func diskDir(dir string, id msg.NodeID) string {
	return filepath.Join(dir, fmt.Sprintf("disk-%d", id))
}

// installation is a booted system as a workload sees it: one blocking
// client per client node, the registry every node counts into, and what
// the durability check needs once it is closed again.
type installation struct {
	dir     string
	reg     *stats.Registry
	clients []*client.SyncClient
	// rec is nil on the shipped topology.
	rec   *recorder
	media []*tracedMedia
	// store is the server's metadata store; it may be read only after
	// close, when the server's executor no longer runs.
	store   func() *meta.Store
	closers []func()
}

// onClose registers a node's shutdown. Nodes stop in the reverse of the
// order they started in: clients, then the server, then the disks and
// their media.
func (in *installation) onClose(stop func()) {
	in.closers = append([]func(){stop}, in.closers...)
}

func (in *installation) close() {
	for _, stop := range in.closers {
		stop()
	}
	in.closers = nil
}

// bootConfig is what differs between two installations of the pinned
// configuration.
type bootConfig struct {
	dir string
	// metaPersist sets server.Config.MetaPersist: meta_durable.
	metaPersist bool
	// noSync opens the media without fsync. The end-to-end runs set it,
	// because the sandbox's fsync takes 0.1 ms in one minute and 0.3 ms in
	// the next and no bound holds across that; the traced run leaves fsync
	// on and reports what it costs.
	noSync bool
}

func openMedia(cfg bootConfig, id msg.NodeID, reg *stats.Registry) (*blockstore.File, error) {
	return blockstore.Open(diskDir(cfg.dir, id), blockstore.Options{
		Blocks: diskBlocks, Registry: reg, NoSync: cfg.noSync,
		StatsPrefix: fmt.Sprintf("disk.%v.media.", id),
	})
}

func serverConfig(boot bootConfig) server.Config {
	caps := make(map[msg.NodeID]uint64, nDisks)
	for i := 0; i < nDisks; i++ {
		caps[firstDisk+msg.NodeID(i)] = diskBlocks
	}
	cfg := server.Config{Core: core.DefaultConfig(), Disks: caps}
	if boot.metaPersist {
		cfg.MetaPersist = filepath.Join(boot.dir, snapshotFile)
	}
	return cfg
}

// register starts a client's registration on its executor and waits for
// the epoch.
func register(submit func(func()), c *client.Client) error {
	done := make(chan struct{}, 1)
	submit(func() {
		c.OnRecovered = func(msg.Epoch) {
			select {
			case done <- struct{}{}:
			default:
			}
		}
		c.Start()
	})
	select {
	case <-done:
		return nil
	case <-time.After(bootTimeout):
		return fmt.Errorf("client %v: registration timed out", c.ID())
	}
}

// bootShipped boots the installation from the constructors tankd and
// tankcli ship with: this is the topology every end-to-end figure is
// measured on.
func bootShipped(cfg bootConfig) (_ *installation, err error) {
	in := &installation{dir: cfg.dir, reg: stats.NewRegistry()}
	defer func() {
		if err != nil {
			in.close()
		}
	}()
	opts := []rpcnet.Option{rpcnet.WithRegistry(in.reg)}
	topo := rpcnet.Topology{Server: serverID, ServerAddr: rpcnet.Loopback(),
		Disks: make(map[msg.NodeID]string)}
	for i := 0; i < nDisks; i++ {
		id := firstDisk + msg.NodeID(i)
		media, err := openMedia(cfg, id, in.reg)
		if err != nil {
			return nil, err
		}
		topo.Disks[id] = rpcnet.Loopback()
		dn, err := rpcnet.StartDiskNode(rpcnet.NodeSpec{ID: id, Topo: topo},
			disk.Config{Blocks: diskBlocks}, append(opts, rpcnet.WithMedia(media))...)
		if err != nil {
			return nil, err // StartDiskNode closed the media
		}
		topo.Disks[id] = dn.Addr.String()
		in.onClose(dn.Close)
	}
	sn, err := rpcnet.StartServerNode(rpcnet.NodeSpec{ID: serverID, Topo: topo},
		serverConfig(cfg), opts...)
	if err != nil {
		return nil, err
	}
	topo.ServerAddr = sn.Addr.String()
	in.store = sn.Srv.Store
	in.onClose(sn.Close)
	for i := 0; i < nClients; i++ {
		cn, err := rpcnet.StartClientNode(rpcnet.NodeSpec{ID: firstClient + msg.NodeID(i), Topo: topo},
			clientConfig(), opts...)
		if err != nil {
			return nil, err
		}
		in.onClose(cn.Close)
		if err := register(cn.Do, cn.Client); err != nil {
			return nil, err
		}
		in.clients = append(in.clients, cn.Sync(opTimeout))
	}
	return in, nil
}

// runLoop starts exec's event loop and returns what stops it: close the
// executor, then wait until the loop has returned. rpcnet's own nodes do
// not wait; the traced ones must, because the loop appends to the span
// buffers that analyze reads once the installation is closed.
func runLoop(exec *rpcnet.Executor) (stop func()) {
	done := make(chan struct{})
	go func() {
		defer close(done)
		exec.Run()
	}()
	return func() {
		exec.Close()
		<-done
	}
}

// bootTraced composes the same installation from the public constructors
// one level down, so that each node's Sender, Deliver and Media can be
// wrapped by rec. It must stay a transcription of rpcnet's Start*Node;
// TestTracedTopologyCountsMatch holds it to that.
func bootTraced(cfg bootConfig, rec *recorder) (_ *installation, err error) {
	in := &installation{dir: cfg.dir, reg: stats.NewRegistry(), rec: rec}
	defer func() {
		if err != nil {
			in.close()
		}
	}()
	topo := rpcnet.Topology{Server: serverID, Disks: make(map[msg.NodeID]string)}
	for i := 0; i < nDisks; i++ {
		id := firstDisk + msg.NodeID(i)
		file, err := openMedia(cfg, id, in.reg)
		if err != nil {
			return nil, err
		}
		nr := rec.node(id)
		media := &tracedMedia{Media: file, n: nr}
		in.media = append(in.media, media)
		exec := rpcnet.NewExecutor()
		var d *disk.Disk
		san := rpcnet.New(id, nil, func(env msg.Envelope) { nr.deliver(lDiskHandle, env, d.Deliver) })
		san.UseExecutor(exec)
		d = disk.New(id, disk.Config{Blocks: diskBlocks}, san.Clock(), nr.sender(san.Send),
			in.reg, disk.Observer{}, disk.WithMedia(media))
		addr, err := san.Listen(rpcnet.Loopback())
		if err != nil {
			san.Close()
			d.Close()
			return nil, err
		}
		topo.Disks[id] = addr.String()
		stop := runLoop(exec)
		in.onClose(func() {
			san.Close()
			stop()
			d.Close()
		})
	}

	{
		nr := rec.node(serverID)
		exec := rpcnet.NewExecutor()
		var srv *server.Server
		ctrl := rpcnet.New(serverID, nil, func(env msg.Envelope) { nr.deliver(lServerHandle, env, srv.Deliver) })
		san := rpcnet.New(serverID, topo.Disks, func(env msg.Envelope) { srv.DeliverSAN(env) })
		ctrl.UseExecutor(exec)
		san.UseExecutor(exec)
		srv = server.New(serverID, serverConfig(cfg), ctrl.Clock(),
			nr.sender(ctrl.Send), san.Send, in.reg, nil)
		addr, err := ctrl.Listen(rpcnet.Loopback())
		if err != nil {
			ctrl.Close()
			san.Close()
			return nil, err
		}
		topo.ServerAddr = addr.String()
		in.store = srv.Store
		stop := runLoop(exec)
		in.onClose(func() {
			ctrl.Close()
			san.Close()
			stop()
		})
	}

	for i := 0; i < nClients; i++ {
		id := firstClient + msg.NodeID(i)
		nr := rec.node(id)
		exec := rpcnet.NewExecutor()
		var c *client.Client
		ctrl := rpcnet.New(id, map[msg.NodeID]string{serverID: topo.ServerAddr},
			func(env msg.Envelope) { nr.deliver(lClientDeliver, env, c.Deliver) })
		san := rpcnet.New(id, topo.Disks,
			func(env msg.Envelope) { nr.deliver(lClientDeliver, env, c.DeliverSAN) })
		ctrl.UseExecutor(exec)
		san.UseExecutor(exec)
		c = client.New(id, serverID, clientConfig(), ctrl.Clock(),
			nr.sender(ctrl.Send), nr.sender(san.Send), nil, in.reg, nil)
		stop := runLoop(exec)
		in.onClose(func() {
			ctrl.Close()
			san.Close()
			stop()
		})
		if err := register(exec.Submit, c); err != nil {
			return nil, err
		}
		// Wake hops go to the buffer of the driver that owns this client;
		// lock_handoff's single driver owns both.
		drv := &rec.drivers[i%len(rec.drivers)]
		in.clients = append(in.clients, client.NewSync(c, nr.await(exec, opTimeout, drv)))
	}
	return in, nil
}

// blockRefs returns where the server placed path's blocks. Call after
// close.
func (in *installation) blockRefs(path string) ([]msg.BlockRef, error) {
	ino, errno := in.store().Lookup(path)
	if errno != msg.OK {
		return nil, fmt.Errorf("%s: %v", path, errno)
	}
	return ino.Blocks, nil
}

// durable is one block the workload was told is on stable storage, and
// the contents it must hold.
type durable struct {
	path string
	idx  int
	want stamp
}

// verifyMedia is the durability check: with the installation closed, it
// reopens each disk directory the way a restarted tankd would — which
// runs blockstore's recovery pass — and counts the acknowledged blocks
// that do not hold their last contents, plus every block recovery found
// torn.
func (in *installation) verifyMedia(blocks []durable) (bad int, err error) {
	media := make(map[msg.NodeID]*blockstore.File, nDisks)
	for i := 0; i < nDisks; i++ {
		id := firstDisk + msg.NodeID(i)
		m, err := blockstore.Open(diskDir(in.dir, id), blockstore.Options{})
		if err != nil {
			return 0, err
		}
		defer m.Close()
		rep := m.Recovery()
		if !rep.Recovered {
			return 0, fmt.Errorf("disk %v: reopen found no existing store", id)
		}
		if len(rep.Torn) > 0 {
			fmt.Fprintf(os.Stderr, "tankbench: disk %v: torn blocks %v\n", id, rep.Torn)
		}
		bad += len(rep.Torn)
		media[id] = m
	}
	refs := make(map[string][]msg.BlockRef)
	for _, b := range blocks {
		if _, ok := refs[b.path]; !ok {
			r, err := in.blockRefs(b.path)
			if err != nil {
				return 0, err
			}
			refs[b.path] = r
		}
		r := refs[b.path]
		if b.idx >= len(r) {
			bad++
			continue
		}
		data, _, ok, err := media[r[b.idx].Disk].Read(r[b.idx].Num)
		if err != nil || !ok || checkStamp(data, b.want) != nil {
			bad++
		}
	}
	return bad, nil
}
