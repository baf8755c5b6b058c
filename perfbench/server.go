package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"sync"
	"syscall"
	"time"
)

// dperfdProc is one running dperfd process with its own temporary
// store directory.
type dperfdProc struct {
	cmd      *exec.Cmd
	base     string // http://host:port
	storeDir string
	drained  chan struct{}
	stopOnce sync.Once
	stopErr  error
}

// startDperfd starts the server on a free loopback port and waits for
// its listening line.
func startDperfd(bin, storeDir string) (*dperfdProc, error) {
	if bin == "" {
		return nil, fmt.Errorf("no dperfd binary given (run through perfbench/run.sh)")
	}
	if err := os.MkdirAll(storeDir, 0o755); err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-store", storeDir)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	p := &dperfdProc{cmd: cmd, storeDir: storeDir, drained: make(chan struct{})}
	onExit(func() { p.stop() })
	lines := make(chan string, 1)
	go func() {
		defer close(p.drained)
		br := bufio.NewReader(stdout)
		first, _ := br.ReadString('\n')
		lines <- first
		io.Copy(io.Discard, br) // until the process exits
	}()
	select {
	case l := <-lines:
		_, rest, ok := strings.Cut(l, "listening on ")
		addr, _, ok2 := strings.Cut(rest, " ")
		if !ok || !ok2 {
			p.stop()
			return nil, fmt.Errorf("dperfd did not start: %q", strings.TrimSpace(l))
		}
		p.base = "http://" + addr
	case <-time.After(30 * time.Second):
		p.stop()
		return nil, fmt.Errorf("dperfd did not report its address within 30 s")
	}
	return p, nil
}

func (p *dperfdProc) pid() int { return p.cmd.Process.Pid }

// stop asks the server to drain and exit, kills it if it does not, and
// waits for it; the store directory is removed. Safe to call twice.
func (p *dperfdProc) stop() error {
	p.stopOnce.Do(func() {
		p.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-p.drained:
		case <-time.After(15 * time.Second):
			p.cmd.Process.Kill()
			<-p.drained
		}
		if err := p.cmd.Wait(); err != nil {
			p.stopErr = fmt.Errorf("dperfd exit: %w", err)
		}
		os.RemoveAll(p.storeDir)
	})
	return p.stopErr
}

// client issues requests over at most two keep-alive connections.
type client struct {
	hc   *http.Client
	base string
}

func newClient(base string) *client {
	return &client{
		hc: &http.Client{
			Transport: &http.Transport{MaxIdleConnsPerHost: 2, MaxConnsPerHost: 2, DisableCompression: true},
			Timeout:   120 * time.Second,
		},
		base: base,
	}
}

// do sends one request and reads the whole response; the latency runs
// from sending to the last body byte.
func (c *client) do(method, path string, body []byte) (int, []byte, time.Duration, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, nil, 0, err
	}
	start := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, time.Since(start), err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, data, time.Since(start), err
}

func (c *client) close() { c.hc.CloseIdleConnections() }
