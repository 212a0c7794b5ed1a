package main

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"os/exec"
	"strings"
	"syscall"
	"time"
)

// server is one dfserve child process listening on a loopback port.
type server struct {
	cmd  *exec.Cmd
	base string
	// client keeps one idle connection per closed-loop client, so no
	// measured request pays a dial; idle connections are closed before
	// the server drains.
	client *http.Client
	// logDone closes once the child's stderr reaches EOF, which must
	// happen before cmd.Wait.
	logDone chan struct{}
}

// startServer launches dfserve on an ephemeral port and returns once it
// answers its health probe.
func startServer(bin string, clients int) (*server, error) {
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-drain", "200ms")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting dfserve: %w", err)
	}
	s := &server{
		cmd: cmd,
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConns:        clients,
			MaxIdleConnsPerHost: clients,
		}},
		logDone: make(chan struct{}),
	}
	// dfserve logs its resolved address once it listens; the rest of its
	// log is read and dropped so the pipe never fills.
	addr := make(chan string, 1)
	go func() {
		defer close(s.logDone)
		sc := bufio.NewScanner(stderr)
		const marker = "listening on "
		found := false
		for sc.Scan() {
			if i := strings.Index(sc.Text(), marker); i >= 0 && !found {
				addr <- sc.Text()[i+len(marker):]
				found = true
			}
		}
		_, _ = io.Copy(io.Discard, stderr)
	}()
	select {
	case a := <-addr:
		s.base = "http://" + a
	case <-s.logDone:
		_ = s.wait()
		return nil, fmt.Errorf("dfserve exited before listening")
	case <-time.After(30 * time.Second):
		_ = s.kill()
		return nil, fmt.Errorf("dfserve did not listen within 30s")
	}
	resp, err := s.client.Get(s.base + "/healthz")
	if err != nil {
		_ = s.kill()
		return nil, fmt.Errorf("dfserve health probe: %w", err)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		_ = s.kill()
		return nil, fmt.Errorf("dfserve health probe: status %d", resp.StatusCode)
	}
	return s, nil
}

// stop drains the server with SIGTERM, as an operator would, and waits
// for it to exit; it kills the child if the drain overruns.
func (s *server) stop() error {
	s.client.CloseIdleConnections()
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		_ = s.kill()
		return fmt.Errorf("signalling dfserve: %w", err)
	}
	done := make(chan error, 1)
	go func() { done <- s.wait() }()
	select {
	case err := <-done:
		if err != nil {
			return fmt.Errorf("dfserve exit: %w", err)
		}
		return nil
	case <-time.After(20 * time.Second):
		_ = s.cmd.Process.Kill()
		<-done
		return fmt.Errorf("dfserve did not drain within 20s")
	}
}

func (s *server) kill() error {
	_ = s.cmd.Process.Kill()
	return s.wait()
}

func (s *server) wait() error {
	<-s.logDone
	return s.cmd.Wait()
}
