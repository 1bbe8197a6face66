package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"

	"github.com/gpusampling/sieve/api"
)

// TestCacheConcurrentPutGet hammers the LRU from many goroutines under
// -race: concurrent puts, gets and len calls over a key space larger than
// the capacity, so insertion, promotion and eviction all interleave. Every
// successful get must return exactly the bytes put for that key.
func TestCacheConcurrentPutGet(t *testing.T) {
	const (
		capacity   = 8
		keys       = 32
		goroutines = 16
		rounds     = 200
	)
	c := newPlanCache(capacity)
	body := func(k int) []byte { return []byte(fmt.Sprintf(`{"plan":%d}`, k)) }

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				k := (g*rounds + r) % keys
				id := fmt.Sprintf("key-%d", k)
				switch r % 3 {
				case 0:
					c.put(id, body(k))
				case 1:
					if e, ok := c.get(id); ok && !bytes.Equal(e.doc, body(k)) {
						t.Errorf("get(%s) = %q, want %q", id, e.doc, body(k))
					}
				default:
					if n := c.len(); n < 0 || n > capacity {
						t.Errorf("len = %d, want 0..%d", n, capacity)
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if n := c.len(); n != capacity {
		t.Fatalf("final len = %d, want %d (saturated)", n, capacity)
	}
}

// TestCacheRefreshKeepsOneEntry: re-putting an existing key must refresh in
// place, not duplicate, and serve the newest bytes.
func TestCacheRefreshKeepsOneEntry(t *testing.T) {
	c := newPlanCache(4)
	c.put("a", []byte(`"v1"`))
	c.put("a", []byte(`"v2"`))
	if c.len() != 1 {
		t.Fatalf("len = %d, want 1", c.len())
	}
	e, ok := c.get("a")
	if !ok || string(e.doc) != `"v2"` || string(e.env) != `{"plan_id":"a","cached":true,"plan":"v2"}`+"\n" {
		t.Fatalf("get = %q %q %v, want v2", e.doc, e.env, ok)
	}
}

// TestCacheLRUOrderUnderGets: a get promotes its entry, so filling past
// capacity evicts the least recently *used*, not the least recently put.
func TestCacheLRUOrderUnderGets(t *testing.T) {
	c := newPlanCache(2)
	c.put("a", []byte(`"a"`))
	c.put("b", []byte(`"b"`))
	c.get("a") // promote a; b is now coldest
	c.put("c", []byte(`"c"`))
	if _, ok := c.get("b"); ok {
		t.Fatal("b survived eviction despite being least recently used")
	}
	if _, ok := c.get("a"); !ok {
		t.Fatal("a evicted despite recent use")
	}
}

// TestCachePutBuildsHitEnvelope: the stored hit envelope is exactly what
// respondDocument writes around the stored document for a cached answer,
// the stored document is
// the compacted plan inside it, and a document that is not JSON stores
// nothing.
func TestCachePutBuildsHitEnvelope(t *testing.T) {
	c := newPlanCache(4)
	for _, tc := range []struct{ id, doc, want string }{
		{"ab12", `{"theta":0.4,"kernel":"k<1>"}`, `{"theta":0.4,"kernel":"k\u003c1\u003e"}`},
		{"cd34", "{\n  \"strata\": [ 1, 2 ],\n  \"sampled\": false\n}", `{"strata":[1,2],"sampled":false}`},
		{`odd",plan":1`, `[]`, `[]`},
	} {
		e, err := c.put(tc.id, []byte(tc.doc))
		if err != nil {
			t.Fatalf("put(%q): %v", tc.id, err)
		}
		rec := httptest.NewRecorder()
		respondDocument(rec, tc.id, true, false, e.doc)
		if !bytes.Equal(e.env, rec.Body.Bytes()) {
			t.Fatalf("hit envelope %q, want %q", e.env, rec.Body.Bytes())
		}
		if string(e.doc) != tc.want {
			t.Fatalf("stored doc %q, want %q", e.doc, tc.want)
		}
		if got, _ := c.get(tc.id); !bytes.Equal(got.env, e.env) {
			t.Fatalf("get returned %q, want the stored envelope", got.env)
		}
	}
	if _, err := c.put("bad", []byte("not json")); err == nil {
		t.Fatal("put accepted a document that is not JSON")
	}
	if _, ok := c.get("bad"); ok {
		t.Fatal("an invalid document was cached")
	}
}

// TestRespondDocumentSplicesEnvelope: a miss response spliced around a
// stored document is byte-for-byte the fully marshaled envelope, for every
// (cached, coalesced) variant, and declares its length.
func TestRespondDocumentSplicesEnvelope(t *testing.T) {
	c := newPlanCache(4)
	e, err := c.put(`id"<&>`, []byte("{\n  \"kernel\": \"k<1>\",\n  \"strata\": [ 1, 2 ]\n}"))
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []struct{ cached, coalesced bool }{{false, false}, {false, true}, {true, false}, {true, true}} {
		want, err := json.Marshal(api.PlanEnvelope{PlanID: e.id, Cached: v.cached, Coalesced: v.coalesced, Plan: e.doc})
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, '\n')
		rec := httptest.NewRecorder()
		respondDocument(rec, e.id, v.cached, v.coalesced, e.doc)
		if !bytes.Equal(rec.Body.Bytes(), want) {
			t.Fatalf("%+v: spliced %q, want %q", v, rec.Body.Bytes(), want)
		}
		if cl := rec.Header().Get("Content-Length"); cl != strconv.Itoa(len(want)) {
			t.Fatalf("%+v: Content-Length %q, want %d", v, cl, len(want))
		}
	}
}
