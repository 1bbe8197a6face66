package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"github.com/gpusampling/sieve/api"
)

// replicaFlags are the sieved flags every replica runs with, besides its
// address and ring membership. Warn-level logging keeps the per-request
// access log off the measured path.
var replicaFlags = []string{"-log-level", "warn"}

// replica is one running sieved process.
type replica struct {
	cmd  *exec.Cmd
	url  string
	done chan error // receives the process's exit once
}

// cluster is the workload's replica set.
type cluster struct {
	replicas []*replica
	http     *http.Client
}

// launch starts n sieved replicas (peered on one ring when n > 1) and waits
// until every one answers /healthz.
func launch(ctx context.Context, bin string, n int, logDir string) (*cluster, error) {
	urls := make([]string, n)
	addrs := make([]string, n)
	for i := range urls {
		addr, err := freeAddr()
		if err != nil {
			return nil, err
		}
		addrs[i], urls[i] = addr, "http://"+addr
	}
	c := &cluster{http: &http.Client{Timeout: 10 * time.Second}}
	for i := range urls {
		args := append([]string{"-addr", addrs[i]}, replicaFlags...)
		if n > 1 {
			args = append(args, "-self", urls[i], "-peers", strings.Join(urls, ","))
		}
		logf, err := os.Create(filepath.Join(logDir, fmt.Sprintf("sieved-%d.log", i)))
		if err != nil {
			c.stop()
			return nil, err
		}
		cmd := exec.Command(bin, args...)
		cmd.Stdout, cmd.Stderr = logf, logf
		// The replica dies with the benchmark even if the benchmark is killed.
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		if err := cmd.Start(); err != nil {
			logf.Close()
			c.stop()
			return nil, fmt.Errorf("start sieved: %w", err)
		}
		r := &replica{cmd: cmd, url: urls[i], done: make(chan error, 1)}
		go func() {
			r.done <- cmd.Wait()
			logf.Close()
		}()
		c.replicas = append(c.replicas, r)
	}
	for _, r := range c.replicas {
		if err := c.waitHealthy(ctx, r); err != nil {
			c.stop()
			return nil, err
		}
	}
	return c, nil
}

// freeAddr reserves a loopback port by binding it and releasing it again.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

func (c *cluster) waitHealthy(ctx context.Context, r *replica) error {
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case err := <-r.done:
			return fmt.Errorf("sieved %s exited during start-up: %v", r.url, err)
		case <-ctx.Done():
			return ctx.Err()
		default:
		}
		resp, err := c.http.Get(r.url + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("sieved %s not healthy after 15s", r.url)
}

// stop sends SIGTERM to every replica and waits for each to exit, killing
// any that outlive the drain window.
func (c *cluster) stop() {
	for _, r := range c.replicas {
		_ = r.cmd.Process.Signal(syscall.SIGTERM)
	}
	for _, r := range c.replicas {
		select {
		case <-r.done:
		case <-time.After(10 * time.Second):
			_ = r.cmd.Process.Kill()
			<-r.done
		}
	}
	c.replicas = nil
}

// counters are the server-side numbers the benchmark reads from the
// replicas, summed over the replica set: the /debug/metrics counters by
// their JSON names, plus the _sum and _count of the sieved_request_seconds
// histogram ("request_sum", "request_count") and of each
// sieved_stage_seconds stage ("stage_sum:decode", "stage_count:decode", …).
type counters map[string]float64

// scrape reads /debug/metrics and /metrics from every replica.
func (c *cluster) scrape() (counters, error) {
	out := counters{}
	for _, r := range c.replicas {
		var d api.DebugMetrics
		if err := c.getJSON(r.url+"/debug/metrics", &d); err != nil {
			return nil, err
		}
		for k, v := range map[string]int64{
			"requests": d.Requests, "failures": d.Failures, "cache_hits": d.CacheHits,
			"cache_misses": d.CacheMisses, "computations": d.Computations, "coalesced": d.Coalesced,
			"peer_fills": d.PeerFills, "peer_proxied": d.PeerProxied, "rejected": d.Rejected,
		} {
			out[k] += float64(v)
		}
		if err := c.scrapeProm(r.url+"/metrics", out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func (c *cluster) getJSON(url string, v any) error {
	resp, err := c.http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// scrapeProm adds the _sum and _count samples of the request and stage
// latency histograms from one replica's Prometheus exposition.
func (c *cluster) scrapeProm(url string, out counters) error {
	resp, err := c.http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		name, stage, value, ok := promSample(sc.Text())
		if !ok {
			continue
		}
		switch name {
		case "sieved_request_seconds_sum":
			out["request_sum"] += value
		case "sieved_request_seconds_count":
			out["request_count"] += value
		case "sieved_stage_seconds_sum":
			out["stage_sum:"+stage] += value
		case "sieved_stage_seconds_count":
			out["stage_count:"+stage] += value
		}
	}
	return sc.Err()
}

// promSample parses one `name{stage="x",…} value` exposition line into the
// metric name, its stage label (if any) and the value.
func promSample(line string) (name, stage string, value float64, ok bool) {
	if line == "" || line[0] == '#' {
		return "", "", 0, false
	}
	sp := strings.LastIndexByte(line, ' ')
	if sp < 0 {
		return "", "", 0, false
	}
	v, err := strconv.ParseFloat(line[sp+1:], 64)
	if err != nil {
		return "", "", 0, false
	}
	name = line[:sp]
	if i := strings.IndexByte(name, '{'); i >= 0 {
		for _, kv := range strings.Split(strings.TrimSuffix(name[i+1:], "}"), ",") {
			if k, val, found := strings.Cut(kv, "="); found && k == "stage" {
				stage = strings.Trim(val, `"`)
			}
		}
		name = name[:i]
	}
	return name, stage, v, true
}

// sub returns the deltas a − b.
func (a counters) sub(b counters) counters {
	d := counters{}
	for k, v := range a {
		d[k] = v - b[k]
	}
	return d
}

// resetPeakRSS restarts every replica's VmHWM from its current resident
// size (writing 5 to /proc/<pid>/clear_refs). It is best effort: where the
// kernel refuses, VmHWM keeps counting from the replica's start.
func (c *cluster) resetPeakRSS() {
	for _, r := range c.replicas {
		_ = os.WriteFile(fmt.Sprintf("/proc/%d/clear_refs", r.cmd.Process.Pid), []byte("5"), 0)
	}
}

// peakRSSMiB sums VmHWM over the replicas.
func (c *cluster) peakRSSMiB() (float64, error) {
	var total float64
	for _, r := range c.replicas {
		kb, err := vmHWM(r.cmd.Process.Pid)
		if err != nil {
			return 0, err
		}
		total += kb / 1024
	}
	return total, nil
}

// vmHWM reads a process's peak resident set size in KiB.
func vmHWM(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			return strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}
