package server

import (
	"bytes"
	"container/list"
	"encoding/json"
	"sync"

	"github.com/gpusampling/sieve/api"
)

// planCache is a content-hash-addressed LRU of marshaled plan documents.
// Keys are the canonical request hash (profile source + resolved options), so
// identical requests are computed once and every hit returns byte-identical
// plan JSON. Each entry also holds the finished cache-hit response, so a hit
// writes stored bytes instead of re-marshaling the envelope. Entry bytes are
// immutable and shared with responders; they must not be mutated.
type planCache struct {
	mu   sync.Mutex
	max  int
	ll   *list.List // front = most recently used
	byID map[string]*list.Element
}

// cacheEntry is one cached plan. env is the complete cached:true response
// body, json.Marshal(api.PlanEnvelope) plus a newline; doc is the plan
// document inside it (a subslice of env, not a second copy).
type cacheEntry struct {
	id  string
	env []byte
	doc []byte
}

func newPlanCache(max int) *planCache {
	return &planCache{max: max, ll: list.New(), byID: make(map[string]*list.Element)}
}

// get returns the cached entry and marks it most recently used.
func (c *planCache) get(id string) (cacheEntry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byID[id]
	if !ok {
		return cacheEntry{}, false
	}
	c.ll.MoveToFront(el)
	return *el.Value.(*cacheEntry), true
}

// planField precedes the plan document in a marshaled envelope. It cannot
// occur earlier: plan_id is the only string before it, and a quote inside a
// JSON string is always escaped, so `,"` never appears there.
var planField = []byte(`,"plan":`)

// put inserts (or refreshes) doc under id, evicting the least recently used
// entry beyond capacity, and returns the stored entry. The hit envelope is
// built here once, by the same json.Marshal a response would use, so a hit's
// bytes equal a freshly marshaled envelope by construction; the stored doc is
// the plan as that marshal wrote it (compacted). A doc that is not valid JSON
// is an error and stores nothing.
func (c *planCache) put(id string, doc []byte) (cacheEntry, error) {
	env, err := json.Marshal(api.PlanEnvelope{PlanID: id, Cached: true, Plan: doc})
	if err != nil {
		return cacheEntry{}, err
	}
	env = append(env, '\n')
	start := bytes.Index(env, planField) + len(planField)
	end := len(env) - len("}\n")
	e := cacheEntry{id: id, env: env, doc: env[start:end:end]}

	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byID[id]; ok {
		c.ll.MoveToFront(el)
		*el.Value.(*cacheEntry) = e
		return e, nil
	}
	c.byID[id] = c.ll.PushFront(&e)
	for c.ll.Len() > c.max {
		last := c.ll.Back()
		c.ll.Remove(last)
		delete(c.byID, last.Value.(*cacheEntry).id)
	}
	return e, nil
}

// len reports the current entry count.
func (c *planCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}
