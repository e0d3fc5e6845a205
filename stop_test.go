package hraft

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

// loneMember starts n1 of the group {n1, n2} with n2 never started: with
// no quorum nothing commits and no read is confirmed, so every Propose,
// Read and Session.Propose it takes waits until the node stops.
func loneMember(t *testing.T) *Node {
	t.Helper()
	net := NewInProcNetwork(31)
	n, err := NewNode(Options{
		ID:                 "n1",
		Peers:              []NodeID{"n1", "n2"},
		Transport:          net.Endpoint("n1"),
		HeartbeatInterval:  10 * time.Millisecond,
		ElectionTimeoutMin: 40 * time.Millisecond,
		ElectionTimeoutMax: 80 * time.Millisecond,
		ProposalTimeout:    100 * time.Millisecond,
		Seed:               31,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		n.Stop()
		net.Close()
	})
	return n
}

// waiting counts the calls registered as waiting on n.
func waiting(n *Node) int {
	n.props.mu.Lock()
	defer n.props.mu.Unlock()
	n.reads.mu.Lock()
	defer n.reads.mu.Unlock()
	return len(n.props.chans) + len(n.reads.chans)
}

// stopWhileWaiting runs call under a context that never expires, stops n
// once call waits on it, and requires call to return ErrStopped promptly.
func stopWhileWaiting(t *testing.T, n *Node, call func(ctx context.Context) error) {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- call(context.Background()) }()
	for deadline := time.Now().Add(2 * time.Second); waiting(n) == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("call never waited on the node")
		}
	}
	n.Stop()
	select {
	case err := <-done:
		if !errors.Is(err, ErrStopped) {
			t.Fatalf("call returned %v; want ErrStopped", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("call still blocked 2s after Stop")
	}
}

func TestStopReleasesWaitingPropose(t *testing.T) {
	n := loneMember(t)
	stopWhileWaiting(t, n, func(ctx context.Context) error {
		_, err := n.Propose(ctx, []byte("x"))
		return err
	})
}

func TestStopReleasesWaitingRead(t *testing.T) {
	n := loneMember(t)
	stopWhileWaiting(t, n, func(ctx context.Context) error {
		_, err := n.Read(ctx)
		return err
	})
}

func TestStopReleasesWaitingSessionPropose(t *testing.T) {
	n := loneMember(t)
	// Attaching does not check the session exists; the proposal simply
	// waits for a quorum that never forms.
	s := n.AttachSession(1, 0)
	stopWhileWaiting(t, n, func(ctx context.Context) error {
		_, err := s.Propose(ctx, []byte("x"))
		return err
	})
}

// TestCallOnStoppedHostReturnsErrStopped takes the interleaving of a call
// that races Stop and reaches the host once it has stopped: its submit
// never runs, and the call must neither report an abort nor wait for its
// context.
func TestCallOnStoppedHostReturnsErrStopped(t *testing.T) {
	n := loneMember(t)
	n.host.Stop()
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if _, err := n.Propose(ctx, []byte("x")); !errors.Is(err, ErrStopped) {
		t.Fatalf("Propose returned %v; want ErrStopped", err)
	}
	if _, err := n.Read(ctx); !errors.Is(err, ErrStopped) {
		t.Fatalf("Read returned %v; want ErrStopped", err)
	}
}

// TestStopRacingCallsReturnErrStopped starts calls together with Stop:
// each must return ErrStopped whether it registers before Stop, submits
// while Stop runs, or reaches the stopped host.
func TestStopRacingCallsReturnErrStopped(t *testing.T) {
	for i := 0; i < 50; i++ {
		n := loneMember(t)
		var wg sync.WaitGroup
		for _, call := range []func() error{
			func() error { _, err := n.Propose(context.Background(), []byte("x")); return err },
			func() error { _, err := n.Read(context.Background()); return err },
		} {
			wg.Add(1)
			go func() {
				defer wg.Done()
				done := make(chan error, 1)
				go func() { done <- call() }()
				select {
				case err := <-done:
					if !errors.Is(err, ErrStopped) {
						t.Errorf("call returned %v; want ErrStopped", err)
					}
				case <-time.After(2 * time.Second):
					t.Error("call still blocked 2s after Stop")
				}
			}()
		}
		n.Stop()
		wg.Wait()
	}
}

// TestCRaftDebugStringHoldsHostLock reads DebugString while proposals
// drive the core; under -race a read outside the host lock is reported.
func TestCRaftDebugStringHoldsHostLock(t *testing.T) {
	net := NewInProcNetwork(41)
	n, err := NewCRaftNode(CRaftOptions{
		ID:              "a1",
		Cluster:         "cA",
		ClusterPeers:    []NodeID{"a1"},
		GlobalClusters:  []NodeID{"cA"},
		Transport:       net.Endpoint("a1"),
		LocalHeartbeat:  2 * time.Millisecond,
		GlobalHeartbeat: 4 * time.Millisecond,
		Seed:            41,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		n.Stop()
		net.Close()
	})
	for _, ch := range []<-chan Entry{n.Commits(), n.GlobalCommits()} {
		go func() {
			for range ch {
			}
		}()
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	defer func() {
		close(stop)
		wg.Wait()
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				n.ProposeAsync([]byte("x"))
			}
		}
	}()
	for deadline := time.Now().Add(200 * time.Millisecond); time.Now().Before(deadline); {
		if n.DebugString() == "" {
			t.Fatal("empty DebugString")
		}
	}
}
