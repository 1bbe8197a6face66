package server

import (
	"io"
	"net/http"
	"sync"
)

const (
	// bodyPresizeMax caps how much buffer a request's Content-Length may
	// reserve up front. A client that claims a huge body and sends a few bytes
	// costs at most this much; a body that really is larger grows past it as
	// it arrives.
	bodyPresizeMax = 1 << 20
	// bodyPoolMax is the largest buffer returned to the pool, so one huge
	// upload does not stay resident as a pooled buffer.
	bodyPoolMax = 4 << 20
)

// bodyBuf is a pooled request-body buffer. The pool holds pointers so that
// putting a buffer back does not allocate.
type bodyBuf struct{ b []byte }

var bodyPool = sync.Pool{New: func() any { return new(bodyBuf) }}

// readBody reads r's body, capped at limit bytes (http.MaxBytesReader, so an
// oversized body fails with *http.MaxBytesError), into a pooled buffer
// presized from Content-Length. The caller owns the buffer until release and
// must not let its bytes outlive that call.
func readBody(w http.ResponseWriter, r *http.Request, limit int64) (*bodyBuf, error) {
	buf := bodyPool.Get().(*bodyBuf)
	// One spare byte lets the final read report EOF without growing a buffer
	// that Content-Length sized exactly.
	want := min(max(r.ContentLength, 0), limit, bodyPresizeMax) + 1
	if int64(cap(buf.b)) < want {
		buf.b = make([]byte, 0, want)
	}
	b := buf.b[:0]
	body := http.MaxBytesReader(w, r.Body, limit)
	for {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		n, err := body.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err == io.EOF {
			break
		}
		if err != nil {
			buf.b = b
			buf.release()
			return nil, err
		}
	}
	buf.b = b
	return buf, nil
}

// bytes returns the body read, nil for a nil buffer.
func (buf *bodyBuf) bytes() []byte {
	if buf == nil {
		return nil
	}
	return buf.b
}

// release returns the buffer to the pool unless it grew past bodyPoolMax. A
// nil buffer is a no-op.
func (buf *bodyBuf) release() {
	if buf == nil || cap(buf.b) > bodyPoolMax {
		return
	}
	buf.b = buf.b[:0]
	bodyPool.Put(buf)
}
