package main

import (
	"encoding/json"
	"fmt"
	"io/fs"
	"sync/atomic"
	"time"

	csj "github.com/opencsj/csj"
	"github.com/opencsj/csj/internal/core"
	"github.com/opencsj/csj/internal/durable"
	"github.com/opencsj/csj/internal/faultfs"
	"github.com/opencsj/csj/internal/index"
	"github.com/opencsj/csj/internal/matching"
	"github.com/opencsj/csj/internal/server"
	"github.com/opencsj/csj/internal/store"
	"github.com/opencsj/csj/internal/vector"
)

// This file holds the in-process side of the traced run: the calls a
// csjserve makes for one request, made directly against the store,
// core, matching, index and durable entry points, each wrapped in a
// span.

// internal adapts a public community to the core representation,
// sharing the user slices.
func internal(c *csj.Community) *vector.Community {
	users := make([]vector.Vector, len(c.Users))
	for i, u := range c.Users {
		users[i] = u
	}
	return &vector.Community{Name: c.Name, Category: c.Category, Users: users}
}

// joiner replays the similarity path of csjserve layer by layer. The
// store's prepared views are opaque outside the csj package, so the
// joiner keeps its own core view of every community the store has
// built a view for: when the store reports a miss, the joiner times
// core.Prepare on the same community as a probe span, and the join runs
// core.ExMinMaxPreparedInto on those core views.
type joiner struct {
	t       *tracer
	eps     int32
	spec    csj.MatchSpec
	mirror  map[int64]*core.Prepared
	scratch core.Scratch
	res     core.Result
	matcher matching.Matcher
	joins   int64
	edges   int64
}

func newJoiner(t *tracer, eps int32) *joiner {
	j := &joiner{t: t, eps: eps, spec: (&csj.Options{Epsilon: eps}).Spec(), mirror: map[int64]*core.Prepared{}}
	j.matcher = matching.CSF
	if t.on {
		j.matcher = func(g *matching.Graph) []matching.Pair {
			id := t.begin("matching.match", kindSeq)
			j.edges += int64(g.Edges())
			p := matching.CSF(g)
			t.end(id)
			return p
		}
	}
	return j
}

// tracedView resolves a prepared view through the store's cache as a
// store.view span tagged hit or miss (the replay is single-threaded, so
// the cache's miss counter tells which) and reports whether it missed.
func tracedView(t *tracer, st *store.Store, snap *store.Snapshot, id int64, spec csj.MatchSpec) (*csj.PreparedCommunity, bool, error) {
	misses := st.CacheStats().Misses
	sid := t.begin("store.view", kindSeq)
	pc, err := snap.PreparedSpec(id, spec)
	t.end(sid)
	miss := st.CacheStats().Misses != misses
	if miss {
		t.tag(sid, "miss")
	} else {
		t.tag(sid, "hit")
	}
	return pc, miss, err
}

// view resolves e's prepared view through the store and keeps the
// joiner's core view in step.
func (j *joiner) view(st *store.Store, snap *store.Snapshot, e *store.Entry) error {
	_, miss, err := tracedView(j.t, st, snap, e.ID, j.spec)
	if err != nil {
		return err
	}
	if miss || j.mirror[e.ID] == nil {
		pid := j.t.begin("core.prepare", kindProbe)
		p, err := core.Prepare(internal(e.Comm), core.Options{Eps: j.eps})
		j.t.end(pid)
		if err != nil {
			return err
		}
		j.mirror[e.ID] = p
	}
	return nil
}

// forget drops the core view of a deleted community.
func (j *joiner) forget(id int64) { delete(j.mirror, id) }

// similarity replays POST /similarity for one request body.
func (j *joiner) similarity(st *store.Store, body []byte) (*server.SimilarityResponse, error) {
	var req server.SimilarityRequest
	id := j.t.begin("server.decode", kindSeq)
	err := json.Unmarshal(body, &req)
	j.t.end(id)
	if err != nil {
		return nil, err
	}
	snap := st.Snapshot()
	b, okB := snap.Get(req.B)
	a, okA := snap.Get(req.A)
	if !okB || !okA {
		return nil, fmt.Errorf("replay: pair %d/%d not in the store", req.B, req.A)
	}
	if req.Orient && b.Comm.Size() > a.Comm.Size() {
		b, a = a, b
	}
	if err := j.view(st, snap, b); err != nil {
		return nil, err
	}
	if err := j.view(st, snap, a); err != nil {
		return nil, err
	}
	id = j.t.begin("core.join", kindSeq)
	err = core.ExMinMaxPreparedInto(j.mirror[b.ID], j.mirror[a.ID], core.Options{Eps: j.eps, Matcher: j.matcher}, &j.scratch, &j.res)
	j.t.end(id)
	if err != nil {
		return nil, err
	}
	j.joins++
	sizeB := b.Comm.Size()
	resp := &server.SimilarityResponse{
		Method:     csj.ExMinMax.String(),
		Similarity: float64(len(j.res.Pairs)) / float64(sizeB),
		Matched:    len(j.res.Pairs),
		SizeB:      sizeB,
		SizeA:      a.Comm.Size(),
		Events:     csj.Events(j.res.Events),
	}
	id = j.t.begin("server.encode", kindSeq)
	_, err = json.Marshal(resp)
	j.t.end(id)
	return resp, err
}

// create replays POST /communities: decode, store.Create (whose WAL
// append, when a log is attached, is a child span), encode; plus the
// index summary the store builds inside Create, timed as a probe.
func (j *joiner) create(st *store.Store, body []byte) (*store.Entry, error) {
	var p server.CommunityPayload
	id := j.t.begin("server.decode", kindSeq)
	err := json.Unmarshal(body, &p)
	j.t.end(id)
	if err != nil {
		return nil, err
	}
	c := &csj.Community{Name: p.Name, Category: p.Category, Users: make([]csj.Vector, len(p.Users))}
	for i, u := range p.Users {
		c.Users[i] = u
	}
	id = j.t.begin("store.create", kindSeq)
	e, err := st.Create(c)
	j.t.end(id)
	if err != nil {
		return nil, err
	}
	id = j.t.begin("index.summary", kindProbe)
	_, err = index.NewSummary(internal(c), 0)
	j.t.end(id)
	if err != nil {
		return nil, err
	}
	id = j.t.begin("server.encode", kindSeq)
	_, err = json.Marshal(server.CommunityInfo{ID: e.ID, Name: c.Name, Category: c.Category, Size: c.Size(), Dim: c.Dim()})
	j.t.end(id)
	return e, err
}

// remove replays DELETE /communities/{id}.
func (j *joiner) remove(st *store.Store, cid int64) error {
	id := j.t.begin("store.delete", kindSeq)
	ok, err := st.Delete(cid)
	j.t.end(id)
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("replay: delete of missing community %d", cid)
	}
	j.forget(cid)
	return nil
}

// tracedLog is the store's persistence hook with every durable call
// timed: appends as child spans of the store call that made them,
// checkpoints (which the store runs on its own goroutine) as detached
// spans.
type tracedLog struct {
	log      *durable.Log
	t        *tracer
	ckpts    atomic.Int64
	inflight atomic.Int64
}

func (p *tracedLog) AppendPut(id int64, version uint64, c *csj.Community) error {
	s := p.t.begin("durable.append", kindSeq)
	err := p.log.AppendPut(id, version, c)
	p.t.end(s)
	return err
}

func (p *tracedLog) AppendDelete(id int64, version uint64) error {
	s := p.t.begin("durable.append", kindSeq)
	err := p.log.AppendDelete(id, version)
	p.t.end(s)
	return err
}

func (p *tracedLog) CheckpointDue() bool { return p.log.CheckpointDue() }

func (p *tracedLog) BeginCheckpoint(seed *store.Seed) (func() error, error) {
	start := time.Now()
	commit, err := p.log.BeginCheckpoint(seed)
	if err != nil {
		return nil, err
	}
	p.inflight.Add(1)
	return func() error {
		defer p.inflight.Add(-1)
		err := commit()
		n := p.ckpts.Add(1)
		p.t.detached(-1_000_000_000-n, "durable.checkpoint", start, time.Now())
		return err
	}, nil
}

func (p *tracedLog) Close() error {
	// The store runs automatic checkpoints on a goroutine it does not
	// wait for; let the last one finish before the log closes.
	for p.inflight.Load() > 0 {
		time.Sleep(time.Millisecond)
	}
	return p.log.Close()
}

// countingFS counts the bytes the durable layer writes to disk.
type countingFS struct {
	faultfs.FS
	n *atomic.Int64
}

func (f countingFS) OpenFile(name string, flag int, perm fs.FileMode) (faultfs.File, error) {
	file, err := f.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return countingFile{File: file, n: f.n}, nil
}

type countingFile struct {
	faultfs.File
	n *atomic.Int64
}

func (f countingFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.n.Add(int64(n))
	return n, err
}
