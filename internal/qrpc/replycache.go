package qrpc

// replyCache is a server-global, byte-bounded LRU of *encoded* replies.
//
// The at-most-once machinery keeps decoded Replies in each session until
// the client acknowledges them; before this cache, every redelivered
// request (and every exec record streamed to a replica) paid a fresh
// wire.Marshal of the same Reply. The cache keeps the encoding produced at
// execution time so the replay path and the replication hook reuse it —
// the marshal happens once, at execute.
//
// It is an optimization only: eviction can never break correctness because
// the decoded Reply stays in the session cache and a miss simply re-encodes
// it (ServerStats.ReplyCacheHits/Misses/Evictions count the traffic).
// Entries are dropped eagerly when their reply is acked or pruned. All
// methods are nil-receiver safe (a nil cache means "disabled") and callers
// hold Server.mu.
type replyCache struct {
	max int // byte budget across all entries
	cur int
	// lru is the sentinel of an intrusive ring: lru.next is the most
	// recently used entry, lru.prev the least. An entry is its own list
	// node, so caching a reply costs one allocation.
	lru replyCacheEntry
	m   map[replyCacheKey]*replyCacheEntry
}

type replyCacheKey struct {
	clientID string
	seq      uint64
}

type replyCacheEntry struct {
	key        replyCacheKey
	enc        []byte
	prev, next *replyCacheEntry
}

// defaultReplyCacheBytes is the budget when ServerConfig.ReplyCacheBytes
// is zero. Sized so ~10k sessions with one smallish unacked reply each fit.
const defaultReplyCacheBytes = 8 << 20

// newReplyCache builds a cache with the given byte budget: zero selects the
// default, negative disables the cache entirely (returns nil).
func newReplyCache(budget int) *replyCache {
	if budget < 0 {
		return nil
	}
	if budget == 0 {
		budget = defaultReplyCacheBytes
	}
	c := &replyCache{max: budget, m: make(map[replyCacheKey]*replyCacheEntry)}
	c.lru.prev, c.lru.next = &c.lru, &c.lru
	return c
}

// unlink takes e out of the ring.
func (e *replyCacheEntry) unlink() {
	e.prev.next, e.next.prev = e.next, e.prev
}

// pushFront links e in as the most recently used entry.
func (c *replyCache) pushFront(e *replyCacheEntry) {
	e.prev, e.next = &c.lru, c.lru.next
	e.prev.next, e.next.prev = e, e
}

func (c *replyCache) get(clientID string, seq uint64) ([]byte, bool) {
	if c == nil {
		return nil, false
	}
	e, ok := c.m[replyCacheKey{clientID: clientID, seq: seq}]
	if !ok {
		return nil, false
	}
	e.unlink()
	c.pushFront(e)
	return e.enc, true
}

// put inserts (or refreshes) an encoding and returns how many older entries
// were evicted to stay inside the budget. Encodings larger than the whole
// budget are not cached — they would evict everything and then miss anyway.
func (c *replyCache) put(clientID string, seq uint64, enc []byte) int64 {
	if c == nil || len(enc) > c.max {
		return 0
	}
	key := replyCacheKey{clientID: clientID, seq: seq}
	if e, ok := c.m[key]; ok {
		c.cur += len(enc) - len(e.enc)
		e.enc = enc
		e.unlink()
		c.pushFront(e)
	} else {
		e := &replyCacheEntry{key: key, enc: enc}
		c.m[key] = e
		c.pushFront(e)
		c.cur += len(enc)
	}
	var evicted int64
	for c.cur > c.max && c.lru.prev != &c.lru {
		e := c.lru.prev
		e.unlink()
		delete(c.m, e.key)
		c.cur -= len(e.enc)
		evicted++
	}
	return evicted
}

func (c *replyCache) delete(clientID string, seq uint64) {
	if c == nil {
		return
	}
	key := replyCacheKey{clientID: clientID, seq: seq}
	if e, ok := c.m[key]; ok {
		c.cur -= len(e.enc)
		e.unlink()
		delete(c.m, key)
	}
}

// bytes reports the current cached payload size (stats/tests).
func (c *replyCache) bytes() int {
	if c == nil {
		return 0
	}
	return c.cur
}
