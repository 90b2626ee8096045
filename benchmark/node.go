package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"time"

	"connquery"
	"connquery/internal/dataset"
	"connquery/server"
)

// buildServer compiles cmd/connserve from the checkout at root into binDir.
func buildServer(root, binDir string) (string, error) {
	bin := filepath.Join(binDir, "connserve")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/connserve")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("build connserve: %v\n%s", err, out)
	}
	return bin, nil
}

// nodeConfig is how one server is started; the same config restarts it.
type nodeConfig struct {
	bin          string // connserve binary; empty serves in-process
	pointsCSV    string
	obstaclesCSV string
	shards       int
	dataDir      string // non-empty = durable
}

// node is one running server: a child connserve, or, for the smoke test's
// -short mode, the same handler on an in-process listener.
type node struct {
	url  string
	cmd  *exec.Cmd
	done chan error // child exit

	stderr lockedBuffer // the child's log, for error messages
	inproc *inprocServer
}

// lockedBuffer collects the child's stderr from the draining goroutine while
// error paths read it.
type lockedBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuffer) Write(p []byte) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.b.Len() < 1<<16 {
		l.b.Write(p)
	}
}

func (l *lockedBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

type inprocServer struct {
	db  connquery.Database
	srv *server.Server
	hs  *http.Server
}

var listenRE = regexp.MustCompile(`listening on (http://\S+)`)

// startNode boots a server and returns once GET /v1/stats answers 200; boot
// is the time from exec to that answer.
func startNode(cfg nodeConfig) (n *node, boot time.Duration, err error) {
	t0 := time.Now()
	if cfg.bin == "" {
		n, err = startInproc(cfg)
	} else {
		n, err = startChild(cfg)
	}
	if err != nil {
		return nil, 0, err
	}
	for {
		resp, err := http.Get(n.url + "/v1/stats")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return n, time.Since(t0), nil
			}
		}
		if time.Since(t0) > 60*time.Second {
			n.kill()
			return nil, 0, fmt.Errorf("server not ready after 60s: %v\n%s", err, n.stderr.String())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func startChild(cfg nodeConfig) (*node, error) {
	args := []string{"-addr", "127.0.0.1:0", "-points-csv", cfg.pointsCSV, "-obstacles-csv", cfg.obstaclesCSV,
		"-shards", strconv.Itoa(cfg.shards)}
	if cfg.dataDir != "" {
		args = append(args, "-data-dir", cfg.dataDir, "-group-commit", "2ms", "-sync-ack")
	}
	n := &node{cmd: exec.Command(cfg.bin, args...), done: make(chan error, 1)}
	pr, pw, err := os.Pipe()
	if err != nil {
		return nil, err
	}
	n.cmd.Stderr = pw
	if err := n.cmd.Start(); err != nil {
		pr.Close()
		pw.Close()
		return nil, err
	}
	pw.Close()
	go func() { n.done <- n.cmd.Wait() }()

	// The child logs its address once it listens; keep draining afterwards
	// so a chatty child never blocks on a full pipe.
	addr := make(chan string, 1)
	go func() {
		defer pr.Close()
		buf := make([]byte, 4096)
		sent := false
		for {
			k, err := pr.Read(buf)
			n.stderr.Write(buf[:k])
			if !sent {
				if m := listenRE.FindStringSubmatch(n.stderr.String()); m != nil {
					addr <- m[1]
					sent = true
				}
			}
			if err != nil {
				if !sent {
					close(addr)
				}
				return
			}
		}
	}()
	select {
	case u, ok := <-addr:
		if !ok {
			n.kill()
			return nil, fmt.Errorf("connserve exited before listening:\n%s", n.stderr.String())
		}
		n.url = u
	case <-time.After(60 * time.Second):
		n.kill()
		return nil, errors.New("connserve did not report its address within 60s")
	}
	return n, nil
}

func startInproc(cfg nodeConfig) (*node, error) {
	pts, err := readCSVFile(cfg.pointsCSV, dataset.ReadPointsCSV)
	if err != nil {
		return nil, err
	}
	obs, err := readCSVFile(cfg.obstaclesCSV, dataset.ReadRectsCSV)
	if err != nil {
		return nil, err
	}
	opts := []connquery.Option{connquery.WithAnswerCache(connquery.DefaultAnswerCacheBytes)}
	var db connquery.Database
	switch {
	case cfg.dataDir != "":
		opts = append(opts, connquery.WithGroupCommit(2*time.Millisecond), connquery.WithSyncAck())
		if !connquery.HasDurableState(cfg.dataDir) {
			opts = append(opts, connquery.WithBootstrapData(pts, obs))
		}
		if cfg.shards > 1 {
			db, err = connquery.OpenDurableSharded(cfg.dataDir, cfg.shards, opts...)
		} else {
			db, err = connquery.OpenDurable(cfg.dataDir, opts...)
		}
	case cfg.shards > 1:
		db, err = connquery.OpenSharded(pts, obs, cfg.shards, opts...)
	default:
		db, err = connquery.Open(pts, obs, opts...)
	}
	if err != nil {
		return nil, err
	}
	srv, err := server.New(server.Config{DB: db, RequestTimeout: 30 * time.Second})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	hs := &http.Server{Handler: srv.Handler()}
	go func() { _ = hs.Serve(ln) }() // ends with ErrServerClosed on kill
	return &node{url: "http://" + ln.Addr().String(), inproc: &inprocServer{db: db, srv: srv, hs: hs}}, nil
}

func readCSVFile[T any](path string, read func(io.Reader) ([]T, error)) ([]T, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return read(f)
}

// kill stops the server the hard way — SIGKILL for a child — and waits for
// it to be gone. The in-process stand-in can only close gracefully, which
// checkpoints a durable store: it exercises restart, not crash recovery.
func (n *node) kill() {
	if n.inproc != nil {
		// As connserve shuts down: end the watch streams and stop accepting
		// at once, or Shutdown would wait on the streams.
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		closed := make(chan struct{})
		go func() { n.inproc.srv.Close(); close(closed) }()
		_ = n.inproc.hs.Shutdown(ctx)
		<-closed
		if c, ok := n.inproc.db.(io.Closer); ok {
			_ = c.Close()
		}
		return
	}
	_ = n.cmd.Process.Kill()
	<-n.done
}

// rssPeakMB reads the child's peak resident set (VmHWM); the in-process
// stand-in reports the harness's own, which is only good for a smoke test.
func (n *node) rssPeakMB() (float64, error) {
	pid := os.Getpid()
	if n.cmd != nil {
		pid = n.cmd.Process.Pid
	}
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// stats fetches GET /v1/stats.
func (n *node) stats() (server.StatsResponse, error) {
	var st server.StatsResponse
	resp, err := http.Get(n.url + "/v1/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("/v1/stats: status %d", resp.StatusCode)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// dirMB sums the file sizes under dir, in MB (10^6 bytes).
func dirMB(dir string) (float64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return float64(total) / 1e6, err
}
