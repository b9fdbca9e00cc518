package client

import (
	"slices"

	"repro/internal/meta"
	"repro/internal/msg"
	"repro/internal/stats"
)

// The name cache (DESIGN.md §18): what this client knows of the namespace
// and may answer from without asking, because a shared lock on a
// directory covers it — the directory's own attributes, its entries, the
// names known to be absent from it, whether the entries held are all there
// are, and the attributes of its non-directory children. The rule is the
// one the data cache lives by: the answer given from here is the answer
// the server would give at that instant, because the server changes
// nothing a lock covers before every other holder has given the lock up,
// and a client that cannot be asked loses everything at its lease's end.
//
// A directory is in the cache exactly while the client believes it holds
// its lock (its record's mode is Shared): the two are installed by
// holdDir and dropped by dropDir together. Locks arrive on replies — no
// request asks for one — and a reply may install only if nothing crossed
// it on the wire (nameGuard).

// nameCap bounds the cache: entries (names, present or absent) plus file
// attributes. Beyond it the least recently used directories are given
// back, each with an ordinary LockRelease.
const nameCap = 1 << 16

// dirNames is one directory the client holds the lock of.
type dirNames struct {
	ino      msg.ObjectID
	attr     msg.Attr // the directory's own
	haveAttr bool
	// ents is sorted by Name. An entry with Ino 0 is a name known to be
	// absent. When complete, ents is the whole listing, holds no absent
	// entries, and a name not in it does not exist.
	ents     []msg.DirEntry
	complete bool
	// files are the attributes of non-directory children, cached under
	// this lock, sorted by inode number (new files get the highest, so a
	// create appends). nameCache.where finds the directory for an inode.
	files []fileAttr
	// The LRU list, most recent first.
	prev, next *dirNames
}

// fileAttr is a non-directory's attributes: msg.Attr without what is
// always false.
type fileAttr struct {
	ino           msg.ObjectID
	size, version uint64
	nlink         uint32
}

func (f fileAttr) attr() msg.Attr {
	return msg.Attr{Ino: f.ino, Size: f.size, Version: f.version, Nlink: f.nlink}
}

type nameCache struct {
	// on is false under the policies that hold no logical locks: nothing
	// is ever installed, and every question goes to the server.
	on   bool
	dirs map[msg.ObjectID]*dirNames
	// where maps a file whose attributes are cached to the directory that
	// holds them.
	where map[msg.ObjectID]*dirNames
	// head and tail of the LRU list of dirs.
	head, tail *dirNames
	count, cap int
	// gen counts the events a reply must not have crossed if what it says
	// is to be installed: a demand received, a release or downgrade sent,
	// one of this client's own changes leaving, or its reply being applied
	// (see nameGuard).
	gen uint64

	hits, misses, negHits, revoked, evicted *stats.Counter
	entries                                 *stats.Gauge
}

func newNameCache(on bool, reg *stats.Registry, prefix string) nameCache {
	return nameCache{
		on:      on,
		dirs:    make(map[msg.ObjectID]*dirNames),
		where:   make(map[msg.ObjectID]*dirNames),
		cap:     nameCap,
		hits:    reg.Counter(prefix + "names.hits"),
		misses:  reg.Counter(prefix + "names.misses"),
		negHits: reg.Counter(prefix + "names.negative_hits"),
		revoked: reg.Counter(prefix + "names.revoked"),
		evicted: reg.Counter(prefix + "names.evicted"),
		entries: reg.Gauge(prefix + "names.entries"),
	}
}

// --- the hit path ------------------------------------------------------------

// find looks name up among the entries held.
func (d *dirNames) find(name string) (int, bool) {
	lo, hi := 0, len(d.ents)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if d.ents[mid].Name < name {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(d.ents) && d.ents[lo].Name == name
}

// file looks ino up among the attributes held.
func (d *dirNames) file(ino msg.ObjectID) (int, bool) {
	lo, hi := 0, len(d.files)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if d.files[mid].ino < ino {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(d.files) && d.files[lo].ino == ino
}

// touch makes d the most recently used directory.
func (n *nameCache) touch(d *dirNames) {
	if n.head == d {
		return
	}
	n.unlink(d)
	d.next = n.head
	if n.head != nil {
		n.head.prev = d
	}
	n.head = d
	if n.tail == nil {
		n.tail = d
	}
}

func (n *nameCache) unlink(d *dirNames) {
	if d.prev != nil {
		d.prev.next = d.next
	} else if n.head == d {
		n.head = d.next
	}
	if d.next != nil {
		d.next.prev = d.prev
	} else if n.tail == d {
		n.tail = d.prev
	}
	d.prev, d.next = nil, nil
}

// walkStep is one directory a lookup walk of the name cache passed and,
// when the directory answered, the name looked up in it ("" when it did
// not) and what that name maps to (0: nothing).
type walkStep struct {
	d    *dirNames
	name string
	ino  msg.ObjectID
}

// walkDepth is how many steps a caller's buffer for a walk holds: a
// deeper path's walk allocates.
const walkDepth = 8

// cachedLookup walks path through the cache from the root, a component
// at a time as the server's walk takes them (meta.PathIter). It answers —
// the object's attributes, or that a name on the way does not exist —
// only when every step it took is covered; at the first directory it does
// not hold, or name it does not know, it reports a miss. The walk itself
// changes nothing: it appends to steps what it passed, and serveWalk does
// what passing it means, once the caller knows it wants that done.
func (c *Client) cachedLookup(path string, steps []walkStep) ([]walkStep, msg.Attr, msg.Errno, bool) {
	n := &c.names
	it, ok := meta.IterPath(path)
	if !ok {
		return steps, msg.Attr{}, msg.OK, false // the server says how that fails
	}
	d := n.dirs[meta.RootIno]
	for name := it.Next(); name != ""; name = it.Next() {
		if d == nil {
			return steps, msg.Attr{}, msg.OK, false
		}
		i, found := d.find(name)
		switch {
		case !found && !d.complete:
			return append(steps, walkStep{d: d}), msg.Attr{}, msg.OK, false
		case !found || d.ents[i].Ino == 0:
			return append(steps, walkStep{d: d, name: name}), msg.Attr{}, msg.ErrNoEnt, true
		}
		e := &d.ents[i]
		steps = append(steps, walkStep{d: d, name: name, ino: e.Ino})
		if e.IsDir {
			d = n.dirs[e.Ino]
			continue
		}
		if it.Left() > 0 {
			return steps, msg.Attr{}, msg.OK, false // through a file: the server says how that fails
		}
		j, ok := d.file(e.Ino)
		if !ok {
			return steps, msg.Attr{}, msg.OK, false
		}
		return steps, d.files[j].attr(), msg.OK, true
	}
	// The path names a directory: its own lock covers its attributes.
	if d == nil || !d.haveAttr {
		return steps, msg.Attr{}, msg.OK, false
	}
	return append(steps, walkStep{d: d}), d.attr, msg.OK, true
}

// serveWalk does what a lookup walk's steps mean: it touches each
// directory passed, in order, and tells the oracle each name it answered
// and, when served is set, the attributes attr it answered.
func (c *Client) serveWalk(steps []walkStep, attr msg.Attr, served bool) {
	for _, s := range steps {
		c.names.touch(s.d)
		if s.name != "" {
			c.oracle.NameServed(c.id, s.d.ino, s.name, s.ino)
		}
	}
	if served {
		c.oracle.AttrServed(c.id, attr)
	}
}

// cachedStat answers a stat by inode: a file's attributes under its
// parent's lock, a directory's under its own. A miss changes nothing.
func (c *Client) cachedStat(ino msg.ObjectID) (msg.Attr, bool) {
	n := &c.names
	if d := n.where[ino]; d != nil {
		i, _ := d.file(ino)
		n.touch(d)
		attr := d.files[i].attr()
		c.oracle.AttrServed(c.id, attr)
		return attr, true
	}
	if d := n.dirs[ino]; d != nil && d.haveAttr {
		n.touch(d)
		c.oracle.AttrServed(c.id, d.attr)
		return d.attr, true
	}
	return msg.Attr{}, false
}

// cachedList answers a readdir from a complete listing. The slice is the
// caller's; the names in it are the cached strings. A miss changes
// nothing.
func (c *Client) cachedList(ino msg.ObjectID) ([]msg.DirEntry, bool) {
	d := c.names.dirs[ino]
	if d == nil || !d.complete {
		return nil, false
	}
	c.names.touch(d)
	out := make([]msg.DirEntry, len(d.ents))
	copy(out, d.ents)
	c.oracle.ListServed(c.id, ino, out)
	return out, true
}

// --- keeping the cache -------------------------------------------------------

// add starts caching directory ino, most recently used.
func (n *nameCache) add(ino msg.ObjectID) *dirNames {
	d := &dirNames{ino: ino}
	n.dirs[ino] = d
	n.touch(d)
	return d
}

// bump moves the entry count, and the gauge that shows it.
func (n *nameCache) bump(delta int) {
	n.count += delta
	n.entries.Set(int64(n.count))
}

// drop forgets directory d: its entries, its own attributes and its
// children's.
func (n *nameCache) drop(d *dirNames) {
	for _, f := range d.files {
		delete(n.where, f.ino)
	}
	n.unlink(d)
	delete(n.dirs, d.ino)
	n.bump(-len(d.ents) - len(d.files))
}

// purge forgets everything: the lease is over, or the machine is.
func (n *nameCache) purge() {
	n.dirs = make(map[msg.ObjectID]*dirNames)
	n.where = make(map[msg.ObjectID]*dirNames)
	n.head, n.tail = nil, nil
	n.bump(-n.count)
}

// setEntry records that name in d leads to ino (0: nowhere). In a
// complete listing an absent name is simply not there.
func (n *nameCache) setEntry(d *dirNames, name string, ino msg.ObjectID, isDir bool) {
	i, found := d.find(name)
	switch {
	case found && ino == 0 && d.complete:
		d.ents = slices.Delete(d.ents, i, i+1)
		n.bump(-1)
	case found:
		d.ents[i].Ino, d.ents[i].IsDir = ino, isDir
	case ino == 0 && d.complete:
	default:
		d.ents = slices.Insert(d.ents, i, msg.DirEntry{Name: name, Ino: ino, IsDir: isDir})
		n.bump(1)
	}
}

// setListing replaces what is known of d's entries by all of them.
func (n *nameCache) setListing(d *dirNames, entries []msg.DirEntry) {
	n.bump(len(entries) - len(d.ents))
	// A copy: the reply's slice may be sent again, and this one changes.
	d.ents = append(d.ents[:0], entries...)
	d.complete = true
}

// setAttr caches a file's attributes under d's lock. Replies to two
// requests in flight can arrive in either order: the newer version stays.
func (n *nameCache) setAttr(d *dirNames, attr msg.Attr) {
	if cur := n.where[attr.Ino]; cur != nil && cur != d {
		n.forgetAttr(attr.Ino) // it moved here
	}
	f := fileAttr{ino: attr.Ino, size: attr.Size, version: attr.Version, nlink: attr.Nlink}
	i, found := d.file(attr.Ino)
	if found {
		if attr.Version >= d.files[i].version {
			d.files[i] = f
		}
		return
	}
	d.files = slices.Insert(d.files, i, f)
	n.where[attr.Ino] = d
	n.bump(1)
}

// refreshAttr updates a file's cached attributes, if any are, from a
// reply that carried them for another purpose.
func (n *nameCache) refreshAttr(attr msg.Attr) {
	if d := n.where[attr.Ino]; d != nil {
		n.setAttr(d, attr)
	}
}

// forgetAttr drops a file's cached attributes.
func (n *nameCache) forgetAttr(ino msg.ObjectID) {
	d := n.where[ino]
	if d == nil {
		return
	}
	i, _ := d.file(ino)
	d.files = slices.Delete(d.files, i, i+1)
	delete(n.where, ino)
	n.bump(-1)
}

// --- the client's side of the lock -------------------------------------------

// nameGuard is what a request remembers of the moment it was sent, to
// decide on the reply's arrival whether what it says may be installed. A
// lock the reply grants is this client's only if nothing took it away in
// between, and the client cannot tell a grant made before a demand, or
// before a release of its own was processed, from one made after: so a
// demand received, or a release or downgrade sent, between the request
// and its reply makes the reply one that is used but installs nothing.
// (One still unacknowledged when the request leaves would do the same;
// ask waits for those first.) What the reply says of the namespace is
// true now only if this client has changed nothing since the server
// wrote it, and replies to requests in flight together arrive in any
// order: so one of this client's own changes leaving, or its reply being
// applied (changeBegin, changeEnd), between the request and its reply
// does the same — a lookup answered "no such name" before this client's
// create of that name, and delivered after it, is used and forgotten. So
// does a new registration, whose server has forgotten the grant, and a
// lease that has stopped being valid, whose locks are about to be
// reasserted from what is held now.
type nameGuard struct {
	gen   uint64
	epoch msg.Epoch
}

func (c *Client) mayInstall(g nameGuard) bool {
	return c.names.on && g.gen == c.names.gen && g.epoch == c.chn.Epoch() && c.admitted()
}

// ask sends a request that reads the namespace and whose reply may grant
// directory locks — the three the cache could not answer — once no
// downgrade is in flight, and hands the reply to done with the guard
// taken as it left.
func (c *Client) ask(req msg.Request, done func(r *msg.Reply, g nameGuard)) {
	if c.downgrades > 0 {
		c.askDeferred = append(c.askDeferred, func() { c.ask(req, done) })
		return
	}
	if !c.admitted() {
		done(nil, nameGuard{}) // the lease went while it waited
		return
	}
	g := nameGuard{gen: c.names.gen, epoch: c.chn.Epoch()}
	c.call(req, func(r *msg.Reply) { done(r, g) })
}

// change sends one of the three requests that change names, likewise: its
// reply also leaves the client holding directories.
func (c *Client) change(req msg.Request, done func(r *msg.Reply, g nameGuard)) {
	if c.downgrades > 0 {
		c.askDeferred = append(c.askDeferred, func() { c.change(req, done) })
		return
	}
	if !c.admitted() {
		done(nil, nameGuard{})
		return
	}
	g := c.changeBegin()
	c.call(req, func(r *msg.Reply) {
		done(r, g)
		c.changeEnd()
	})
}

// changeBegin marks a request of this client's that changes something a
// directory lock covers — a name, or a file's attributes — as leaving, and
// changeEnd its reply as applied to the cache. Between the two the server
// makes the change at a moment the client cannot place among the other
// replies on their way to it: every reply that overlaps the change is used
// and installs nothing, and the oracle excuses a cache that lags the
// client's own request — until changeEnd, and no longer.
func (c *Client) changeBegin() nameGuard {
	c.names.gen++
	c.changes++
	c.oracle.OwnChanges(c.id, c.changes)
	return nameGuard{gen: c.names.gen, epoch: c.chn.Epoch()}
}

func (c *Client) changeEnd() {
	c.names.gen++
	c.changes--
	c.oracle.OwnChanges(c.id, c.changes)
}

// holdDir returns the cached state of a directory a reply says the client
// holds: what is cached already, or — when the reply may install — a new
// entry, and the lock with it.
func (c *Client) holdDir(ino msg.ObjectID, install bool) *dirNames {
	if ino == 0 {
		return nil
	}
	if d := c.names.dirs[ino]; d != nil {
		return d
	}
	if !install {
		return nil
	}
	o := c.obj(ino)
	o.mode = msg.LockShared
	c.lease.locked(o)
	return c.names.add(ino)
}

// dropDir stops caching directory ino and forgets its lock, reporting
// whether there was anything to drop. Telling the server is the caller's
// business.
func (c *Client) dropDir(ino msg.ObjectID) bool {
	d := c.names.dirs[ino]
	if d == nil {
		return false
	}
	c.names.drop(d)
	c.unlock(ino)
	return true
}

// distrust is what becomes of the reply to one of this client's own
// changes that something crossed. The change is real, but so is whatever
// overtook it — a demand and a fresh grant, another change of this
// client's to the same name — and in which order the two reached the
// server nobody here can tell: every directory the reply names goes, with
// what was cached under it. (One it could not name, 0, the change did not
// touch: the directories a mutation changes are its own for the
// duration.) The locks stay the server's to demand.
func (c *Client) distrust(dirs []msg.ObjectID) {
	for _, ino := range dirs {
		c.dropDir(ino)
	}
}

// trimNames gives the least recently used directories back while the
// cache is over its cap, sparing the one in use.
func (c *Client) trimNames() {
	n := &c.names
	for n.count > n.cap && n.tail != nil && n.tail != n.head {
		ino := n.tail.ino
		c.dropDir(ino)
		n.evicted.Inc()
		o := c.downgradeBegin(ino)
		c.call(&msg.LockRelease{Ino: ino, To: msg.LockNone}, func(*msg.Reply) { c.downgradeEnd(ino, o) })
	}
}

// countNames counts a path's names as the server's walk does.
func countNames(path string) int {
	it, _ := meta.IterPath(path)
	return it.Left()
}

// learnWalk takes in what an uncrossed reply to a request about path says
// about the namespace. dirs[i] is the directory the path's i-th name was
// looked up in, or 0. The walk found found at its end, or, when found is
// nil, found the last name it reached missing from the last directory. The
// names cached are substrings of path.
func (c *Client) learnWalk(path string, dirs []msg.ObjectID, found *msg.Attr) (names int) {
	it, _ := meta.IterPath(path)
	names = it.Left()
	n := &c.names
	for i := 0; i < len(dirs) && i < names; i++ {
		name := it.Next()
		d := c.holdDir(dirs[i], true)
		if d == nil {
			continue
		}
		switch last := i == names-1 || i == len(dirs)-1; {
		case !last:
			if dirs[i+1] != 0 {
				n.setEntry(d, name, dirs[i+1], true)
			}
		case found == nil:
			n.setEntry(d, name, 0, false)
		case i == names-1:
			n.setEntry(d, name, found.Ino, found.IsDir)
			if !found.IsDir {
				n.setAttr(d, *found)
			}
		}
	}
	c.trimNames()
	return names
}

// learnLookup takes in a Lookup reply: the chain, the object's attributes
// under the lock that covers them, or the name's absence.
func (c *Client) learnLookup(path string, res msg.LookupRes, errno msg.Errno, g nameGuard) {
	if !c.mayInstall(g) {
		return // nothing here may disagree with what is cached
	}
	if errno != msg.OK {
		c.learnWalk(path, res.Dirs, nil)
		return
	}
	names := c.learnWalk(path, res.Dirs, &res.Attr)
	if res.Attr.IsDir && len(res.Dirs) == names+1 {
		// One more entry: the directory found, under its own lock.
		if d := c.holdDir(res.Dirs[names], true); d != nil {
			d.attr, d.haveAttr = res.Attr, true
		}
	}
}

// learnCreate takes in the reply to this client's own Create: a lookup of
// the new name, and a directory whose own attributes just moved.
func (c *Client) learnCreate(path string, res msg.CreateRes, g nameGuard) {
	switch {
	case !c.names.on:
	case !c.mayInstall(g):
		c.distrust(res.Dirs)
	default:
		c.learnWalk(path, res.Dirs, &res.Attr)
		c.parentChanged(res.Dirs)
	}
}

// parentChanged notes that the last directory of a chain gained or lost a
// name: its version moved, and its link count may have.
func (c *Client) parentChanged(dirs []msg.ObjectID) {
	if len(dirs) > 0 {
		if d := c.names.dirs[dirs[len(dirs)-1]]; d != nil {
			d.haveAttr = false
		}
	}
}

// unlearn removes the name at the end of path, which this client's own
// Unlink or Rename took out of the last directory of the chain, and
// whatever was cached about the object under it.
func (c *Client) unlearn(path string, dirs []msg.ObjectID, gone msg.Attr) {
	c.learnWalk(path, dirs, nil)
	c.parentChanged(dirs)
	c.names.forgetAttr(gone.Ino)
}

// learnUnlink takes in the reply to this client's own Unlink.
func (c *Client) learnUnlink(path string, res msg.LookupRes, g nameGuard) {
	if !c.names.on {
		return
	}
	if c.mayInstall(g) {
		c.unlearn(path, res.Dirs, res.Attr)
	} else {
		c.distrust(res.Dirs)
	}
	if res.Attr.IsDir {
		c.dropDir(res.Attr.Ino) // the server has let go of it for everyone
	}
}

// learnRename takes in the reply to this client's own Rename: OldPath's
// chain, then NewPath's. A rename that left the authority carries none —
// its server took the old directory's lock from this client too.
func (c *Client) learnRename(oldPath, newPath string, res msg.LookupRes, g nameGuard) {
	from := countNames(oldPath)
	switch {
	case !c.names.on || len(res.Dirs) != from+countNames(newPath):
	case !c.mayInstall(g):
		c.distrust(res.Dirs)
	default:
		c.unlearn(oldPath, res.Dirs[:from], res.Attr)
		c.learnWalk(newPath, res.Dirs[from:], &res.Attr)
		c.parentChanged(res.Dirs[from:])
	}
}

// learnAttr takes in attributes that came with the name of the directory
// whose lock covers them (0: the client does not hold it). Only the
// uncrossed reply to a GetAttr may install that directory, or say what a
// directory's own attributes are: the requests that change a file's
// attributes leave their requester holding what it held, and their replies
// update what is cached — the newer version stays, whatever order they
// come in.
func (c *Client) learnAttr(res msg.AttrRes, install bool) {
	if !c.names.on {
		return
	}
	d := c.holdDir(res.Dir, install)
	switch {
	case res.Attr.IsDir:
		if install && d != nil && res.Dir == res.Attr.Ino {
			d.attr, d.haveAttr = res.Attr, true
		}
	case d != nil:
		c.names.setAttr(d, res.Attr)
		c.trimNames()
	case res.Dir == 0:
		// The server does not count this client among the holders of the
		// lock that covers these attributes.
		c.names.forgetAttr(res.Attr.Ino)
	}
}

// learnList takes in a Readdir reply.
func (c *Client) learnList(ino msg.ObjectID, res msg.ReaddirRes, g nameGuard) {
	if !res.Granted || !c.mayInstall(g) {
		return
	}
	c.names.setListing(c.holdDir(ino, true), res.Entries)
	c.trimNames()
}
