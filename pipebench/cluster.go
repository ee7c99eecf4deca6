package main

import (
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"repro/internal/capstore"
	"repro/internal/capstore/replica"
	"repro/internal/ring"
)

// Ring shape shared by every workload: capring's defaults (R=2, W=1,
// ring seed 1) over three capd nodes.
const (
	ringSeed     = 1
	ringReplicas = 2
	ringQuorum   = 1
)

var nodeNames = []string{"n0", "n1", "n2"}

// newRing is the placement the writer derives from the same config.
func newRing() (*ring.Ring, error) {
	return ring.New(ring.Config{Seed: ringSeed, Nodes: nodeNames, Replicas: ringReplicas})
}

// server is one loopback HTTP listener, wired like the daemons'.
type server struct {
	srv  *http.Server
	done chan struct{}
	url  string
}

func serve(h http.Handler) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{
		srv:  &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second, IdleTimeout: 60 * time.Second},
		done: make(chan struct{}),
		url:  "http://" + ln.Addr().String(),
	}
	go func() {
		defer close(s.done)
		s.srv.Serve(ln) //nolint:errcheck // always ErrServerClosed after Close
	}()
	return s, nil
}

// Close stops the listener and every connection, and waits for Serve.
func (s *server) Close() {
	s.srv.Close()
	<-s.done
}

// storeNode is one capd: a store with its ingester, compactor and the
// capd handler tree, behind loopback HTTP.
type storeNode struct {
	name  string
	store *capstore.Store
	comp  *capstore.Compactor
	srv   *server
	cl    *capstore.Client
}

// cluster is three capd nodes and the capring writer in front of them.
type cluster struct {
	nodes  []*storeNode
	byName map[string]*storeNode
	writer *replica.Writer
	shards int
}

// startCluster serves the given stores (one per node name, all with
// the same shard count) and starts a writer over them. The caller
// closes the stores after the cluster.
func startCluster(stores []*capstore.Store, m *meters) (*cluster, error) {
	c := &cluster{byName: make(map[string]*storeNode), shards: stores[0].NumShards()}
	var nodes []replica.NodeConfig
	for i, st := range stores {
		ing, err := capstore.NewIngester(st, capstore.IngestConfig{})
		if err != nil {
			c.Close()
			return nil, err
		}
		mux := http.NewServeMux()
		mux.Handle("/ingest", m.ingestHandler(ing))
		mux.Handle("/", capstore.NewResilientHandler(st, capstore.ServeConfig{Ingester: ing}))
		srv, err := serve(mux)
		if err != nil {
			c.Close()
			return nil, err
		}
		n := &storeNode{name: nodeNames[i], store: st, srv: srv, cl: capstore.NewClient(srv.url)}
		c.nodes = append(c.nodes, n)
		c.byName[n.name] = n
		nodes = append(nodes, replica.NodeConfig{Name: n.name, URL: srv.url})
	}
	w, err := replica.NewWriter(replica.Config{
		Nodes:    nodes,
		Shards:   c.shards,
		Seed:     ringSeed,
		Replicas: ringReplicas,
		Quorum:   ringQuorum,
	})
	if err != nil {
		c.Close()
		return nil, err
	}
	c.writer = w
	return c, nil
}

// startCompactors starts each node's background compactor, as capd
// -compact does.
func (c *cluster) startCompactors(cfg capstore.CompactConfig) {
	for _, n := range c.nodes {
		n.comp = n.store.StartCompactor(cfg)
	}
}

// Close stops the writer, the servers and the compactors.
func (c *cluster) Close() {
	if c.writer != nil {
		c.writer.Close()
	}
	for _, n := range c.nodes {
		n.srv.Close()
		if n.comp != nil {
			n.comp.Close()
		}
	}
}

// closeStores closes every store, returning the first error.
func closeStores(stores []*capstore.Store) error {
	var errs []error
	for _, st := range stores {
		errs = append(errs, st.Close())
	}
	return errors.Join(errs...)
}

// storeStats sums the nodes' Store.Stats counters.
func (c *cluster) storeStats() capstore.Stats {
	var sum capstore.Stats
	for _, n := range c.nodes {
		st := n.store.Stats()
		sum.Records += st.Records
		sum.Compactions += st.Compactions
		sum.PackedBytes += st.PackedBytes
		sum.PaceSleepSeconds += st.PaceSleepSeconds
		sum.RowsScanned += st.RowsScanned
	}
	return sum
}

// checkManifests is the replica gate: every shard's manifest (record
// count, bytes, FNV-64a of the logical stream) agrees across the nodes
// the ring places it on.
func (c *cluster) checkManifests() error {
	man := make(map[string]capstore.Manifest)
	for _, n := range c.nodes {
		m, err := n.cl.Manifest()
		if err != nil {
			return fmt.Errorf("manifest of %s: %w", n.name, err)
		}
		man[n.name] = m
	}
	rg := c.writer.Ring()
	for s := 0; s < c.shards; s++ {
		placed := rg.PlaceSegment(s)
		want := man[placed[0]].Segments[s]
		for _, name := range placed[1:] {
			if got := man[name].Segments[s]; got != want {
				return fmt.Errorf("shard %d: %s has %+v, %s has %+v", s, placed[0], want, name, got)
			}
		}
	}
	return nil
}

// ringSource is the follower Source over the ring: each shard is read
// from the first node the ring places it on, through that node's
// capstore.Client (capring itself serves no /stats or /segment).
type ringSource struct {
	c *cluster
	m *meters
}

// Counts reports per-shard committed record counts, one Stats call
// per node.
func (r ringSource) Counts() ([]int, error) {
	stats := make(map[string]capstore.Stats)
	out := make([]int, r.c.shards)
	rg := r.c.writer.Ring()
	for s := range out {
		name := rg.PlaceSegment(s)[0]
		st, ok := stats[name]
		if !ok {
			var err error
			if st, err = r.c.byName[name].cl.Stats(); err != nil {
				return nil, err
			}
			stats[name] = st
		}
		out[s] = st.Shards[s].Records
	}
	return out, nil
}

// Stream streams one shard from its first placed node, timing reads.
func (r ringSource) Stream(shard, from int) (io.ReadCloser, error) {
	name := r.c.writer.Ring().PlaceSegment(shard)[0]
	rc, err := r.c.byName[name].cl.SegmentReader(shard, from)
	if err != nil {
		return nil, err
	}
	return timedReader{r: rc, nanos: &r.m.streamNanos}, nil
}
