package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"time"

	"dot11fp/internal/server"
)

const (
	servedSite = "bench"
	// servedFeedBuffer holds several windows' events, so that the SSE
	// subscriber, which keeps up on average, loses none while the engine
	// runs ahead within a window.
	servedFeedBuffer = 1 << 14
	// feedTimeout bounds the wait for the last verdict on the feed.
	feedTimeout = time.Minute
	// apiThink is the API client's pause between a reply and its next
	// query. Without it the client saturates a core of its own and the
	// server's handler another, and the engine's share of the two cores
	// would swing with the scheduler; with it the reads still land
	// during every hot-swap, and a cheaper read path frees CPU for the
	// pipeline instead of buying more reads.
	apiThink = time.Millisecond
)

// servedEnv is randomized-served's HTTP face for one pass: a server on
// loopback with one site, one SSE subscriber and one closed-loop API
// client — two connections.
type servedEnv struct {
	srv  *server.Server
	site *server.Site
	base string // the site's URL
	sse  *http.Client
	api  *http.Client
	feed *feedClient
}

// startServed starts the server and subscribes to the site's feed,
// whose verdicts go to col.
func startServed(col *collector) (*servedEnv, error) {
	reg := server.NewRegistry()
	site := server.NewSite(servedSite, server.SiteOptions{Window: servedWindow, FeedBuffer: servedFeedBuffer})
	if err := reg.Add(site); err != nil {
		return nil, err
	}
	srv, err := server.Start("127.0.0.1:0", reg, server.Options{})
	if err != nil {
		return nil, err
	}
	e := &servedEnv{
		srv: srv, site: site,
		base: "http://" + srv.Addr() + "/api/v1/sites/" + servedSite,
		sse:  &http.Client{Transport: &http.Transport{DisableCompression: true}},
		api:  &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}},
	}
	if e.feed, err = openFeed(e.sse, e.base+"/feed", col); err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

// close releases the feed, then shuts the server down.
func (e *servedEnv) close() {
	if e.feed != nil {
		e.feed.close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = e.srv.Shutdown(ctx) // the measurements are complete; a slow shutdown changes none
	e.sse.CloseIdleConnections()
	e.api.CloseIdleConnections()
}

// feedClient is the SSE subscriber: it decodes the verdicts off the
// wire and hands each to the pass's collector.
type feedClient struct {
	col    *collector
	cancel context.CancelFunc
	body   io.ReadCloser
	done   chan struct{}
}

// openFeed subscribes to a site feed. The server subscribes before it
// sends the response headers, so the subscription exists on return.
func openFeed(c *http.Client, url string, col *collector) (*feedClient, error) {
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		cancel()
		return nil, err
	}
	resp, err := c.Do(req)
	if err != nil {
		cancel()
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		cancel()
		return nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	f := &feedClient{col: col, cancel: cancel, body: resp.Body, done: make(chan struct{})}
	go f.read()
	return f, nil
}

// read decodes the feed until it ends. A frame it cannot decode stops
// it; the pass then times out waiting for its verdicts and fails.
func (f *feedClient) read() {
	defer close(f.done)
	br := bufio.NewReaderSize(f.body, 1<<20)
	var p feedParser
	for {
		line, err := br.ReadSlice('\n')
		if err != nil {
			return
		}
		v, ok, err := p.line(line)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return
		}
		if ok {
			f.col.verdict(v)
		}
	}
}

// close ends the subscription and waits for the reader.
func (f *feedClient) close() {
	f.cancel()
	<-f.done
	f.body.Close()
}

// apiClient is randomized-served's reader: it asks "who is sender X"
// about the senders the feed has delivered so far, one request at a
// time with apiThink between them (a closed loop), until finished.
type apiClient struct {
	stop, done chan struct{}
	lat        []float64 // µs per round trip
	failed     int
}

func (e *servedEnv) startAPI(col *collector) *apiClient {
	a := &apiClient{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(a.done)
		for k := 0; ; k++ {
			select {
			case <-a.stop:
				return
			default:
			}
			if addr, ok := col.pick(k); ok {
				start := time.Now()
				if err := query(e.api, e.base+"/senders/"+addr.String()); err != nil {
					a.failed++
				} else {
					a.lat = append(a.lat, micros(time.Since(start)))
				}
			}
			time.Sleep(apiThink)
		}
	}()
	return a
}

// finish stops the client, waits for it and returns its round trips.
func (a *apiClient) finish() ([]float64, int) {
	close(a.stop)
	<-a.done
	return a.lat, a.failed
}

func query(c *http.Client, url string) error {
	resp, err := c.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return nil
}
