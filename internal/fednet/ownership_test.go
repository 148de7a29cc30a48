package fednet

import (
	"sync/atomic"
	"testing"

	"middle/internal/mobility"
)

// cacheAudit is a mobility model that, each time the cloud asks it for the
// next step — between two rounds, when no edge is aggregating — compares
// every edge's cached device models with what the devices themselves hold.
// The edges decode replies into recycled vectors, so the cache is where a
// buffer recycled while still referenced would show.
type cacheAudit struct {
	mobility.Model
	t       *testing.T
	cluster atomic.Pointer[Cluster]
	// seen remembers, per edge and device, the cached model last verified
	// and the device state it belonged to.
	seen         map[[2]int]cachedModel
	fresh, stale int
}

type cachedModel struct {
	state *deviceState
	model []float64
}

func (a *cacheAudit) Step() []int {
	if c := a.cluster.Load(); c != nil {
		for i := range c.edges {
			a.audit(c, c.edgeAt(i))
		}
	}
	return a.Model.Step()
}

func (a *cacheAudit) audit(c *Cluster, e *Edge) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for id, d := range e.devices {
		key := [2]int{e.cfg.EdgeID, id}
		was, known := a.seen[key]
		switch {
		case d.lastModel == nil:
			delete(a.seen, key)
			continue
		case d.trainedHere && d.lastTrained == e.curRound:
			// It answered this round: the cache is its reply, and its reply
			// is the model it carries now.
			a.fresh++
			if !sameBits(d.lastModel, c.clients[id/c.group].LocalModel(id)) {
				a.t.Errorf("round %d: edge %d caches a model for device %d that differs from the one it sent", e.curRound, e.cfg.EdgeID, id)
			}
		case known && was.state == d:
			// It did not: nothing may have touched the cached vector.
			a.stale++
			if !sameBits(d.lastModel, was.model) {
				a.t.Errorf("round %d: edge %d's cached model of idle device %d changed", e.curRound, e.cfg.EdgeID, id)
			}
			continue
		}
		a.seen[key] = cachedModel{state: d, model: append([]float64(nil), d.lastModel...)}
	}
}

// TestEdgeCachedModelsStayOwned runs a two-edge live-migration cluster
// under heavy mobility and audits the edges' device caches after every
// round: a reply vector belongs to its device's cache entry until that
// device's next reply replaces it, whatever was decoded in between.
func TestEdgeCachedModelsStayOwned(t *testing.T) {
	audit := &cacheAudit{Model: mobility.NewMarkovRing(2, 6, 0.5, 11), t: t, seen: map[[2]int]cachedModel{}}
	c, err := StartCluster(migrationClusterConfig(t, 10, audit))
	if err != nil {
		t.Fatal(err)
	}
	audit.cluster.Store(c)
	if err := c.Wait(); err != nil {
		t.Fatal(err)
	}
	if audit.fresh == 0 || audit.stale == 0 {
		t.Fatalf("audited %d fresh and %d idle cache entries, want both", audit.fresh, audit.stale)
	}
	t.Logf("audited %d fresh and %d idle cache entries", audit.fresh, audit.stale)
}
