package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"resilience/internal/experiments"
	"resilience/internal/obs"
	"resilience/internal/rescache"
	"resilience/internal/rescache/fsstore"
	"resilience/internal/rescache/memstore"
	"resilience/internal/server"
)

// Daemon wiring, as `resilience serve` sets it up: a memory LRU over a
// filesystem tier, a 4096-span trace buffer, no adapt controller
// (normal mode throughout) and a single node. memEntries is the
// daemon's -cache-mem-entries; the mixed-load hot set fits in it.
const (
	memEntries = 64
	spanLimit  = 4096
)

// daemon is one in-process `resilience serve` listening on loopback.
type daemon struct {
	url   string
	srv   *server.Server
	obs   *obs.Observer
	cache *rescache.Cache
	mem   *memstore.Store
	fs    *fsstore.Store
	dir   string
	// hs is the benchmark's own http.Server, used only when traced so
	// the handler can be wrapped; plain runs serve with srv.Serve.
	hs       *http.Server
	serveErr chan error
}

// bootDaemon starts a daemon over a fresh cache directory inside
// workDir and waits until it answers /readyz. A non-nil tracer wraps
// the cache tiers, the registry and the handler; nil gives exactly the
// serve wiring.
func bootDaemon(workDir string, tr *tracer) (*daemon, error) {
	dir, err := os.MkdirTemp(workDir, "daemon-")
	if err != nil {
		return nil, err
	}
	observer := obs.New()
	observer.Trace.SetLimit(spanLimit)
	mem, err := memstore.New(memEntries, 0)
	if err != nil {
		return nil, err
	}
	fsTier, err := fsstore.Open(dir)
	if err != nil {
		return nil, err
	}
	memT, fsT := tr.wrapStore(mem, "mem"), tr.wrapStore(fsTier, "fs")
	local := rescache.Tiered(memT, fsT)
	cache := rescache.New(rescache.Tiered(memT, fsT))
	cache.SetObserver(observer)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	url := "http://" + l.Addr().String()
	cfg := server.Config{
		Cache:          cache,
		Local:          local,
		Self:           url,
		Obs:            observer,
		MaxInflight:    nproc(),
		RequestTimeout: server.DefaultRequestTimeout,
	}
	if tr != nil {
		cfg.Registry = tr.wrapRegistry(experiments.All())
	}
	d := &daemon{url: url, srv: server.New(cfg), obs: observer, cache: cache, mem: mem, fs: fsTier, dir: dir, serveErr: make(chan error, 1)}
	if tr != nil {
		d.hs = &http.Server{Handler: tr.wrapHandler(d.srv.Handler()), ReadHeaderTimeout: 10 * time.Second}
		go func() { d.serveErr <- d.hs.Serve(l) }()
	} else {
		go func() { d.serveErr <- d.srv.Serve(l) }()
	}
	if err := d.awaitReady(); err != nil {
		d.stop()
		return nil, err
	}
	return d, nil
}

func (d *daemon) awaitReady() error {
	hc := &http.Client{Timeout: time.Second}
	defer hc.CloseIdleConnections()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := hc.Get(d.url + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	return fmt.Errorf("daemon at %s never became ready", d.url)
}

// stop drains the daemon, waits for its serve loop to return, and
// removes its cache directory.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var err error
	if d.hs != nil {
		err = d.hs.Shutdown(ctx)
	} else {
		err = d.srv.Shutdown(ctx)
	}
	if serr := <-d.serveErr; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	err = errors.Join(err, d.cache.Close(), os.RemoveAll(d.dir))
	return err
}

// spansFull reports whether the daemon's trace buffer has reached its
// limit, the steady state of a long-running daemon.
func (d *daemon) spansFull() bool {
	return len(d.obs.Trace.Snapshot()) >= spanLimit
}

// counter reads one of the daemon's obs counters.
func (d *daemon) counter(name string) int64 { return d.obs.Metrics.Counter(name).Value() }
