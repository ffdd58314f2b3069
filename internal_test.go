package tps

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"github.com/tps-p2p/tps/internal/jxta/endpoint"
	"github.com/tps-p2p/tps/internal/jxta/jid"
	"github.com/tps-p2p/tps/internal/jxta/rendezvous"
	"github.com/tps-p2p/tps/internal/jxta/transport/memnet"
	"github.com/tps-p2p/tps/internal/netsim"
)

// White-box tests for the public package's unexported helpers.

type cbStruct struct{ hits int }

func (c *cbStruct) Handle(int) error { return nil }

func TestSameHandlerPointers(t *testing.T) {
	a, b := &cbStruct{}, &cbStruct{}
	if !sameHandler(a, a) {
		t.Fatal("same pointer not equal")
	}
	if sameHandler(a, b) {
		t.Fatal("distinct pointers equal")
	}
}

func TestSameHandlerFuncs(t *testing.T) {
	f := CallBackFunc[int](func(int) error { return nil })
	g := CallBackFunc[int](func(int) error { return nil })
	if !sameHandler(f, f) {
		t.Fatal("same func value not equal")
	}
	if sameHandler(f, g) {
		t.Fatal("distinct funcs equal")
	}
}

func TestSameHandlerNils(t *testing.T) {
	if !sameHandler(nil, nil) {
		t.Fatal("nil != nil")
	}
	if sameHandler(nil, &cbStruct{}) || sameHandler(&cbStruct{}, nil) {
		t.Fatal("nil equal to non-nil")
	}
}

func TestSameHandlerComparableValues(t *testing.T) {
	type tok struct{ id int }
	if !sameHandler(tok{1}, tok{1}) {
		t.Fatal("equal comparable values not equal")
	}
	if sameHandler(tok{1}, tok{2}) {
		t.Fatal("different values equal")
	}
	if sameHandler(tok{1}, "not a tok") {
		t.Fatal("different kinds equal")
	}
}

func TestSameHandlerIncomparable(t *testing.T) {
	// Structs holding slices are not comparable; must not panic.
	type bad struct{ xs []int }
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("panicked: %v", r)
		}
	}()
	if sameHandler(bad{xs: []int{1}}, bad{xs: []int{1}}) {
		t.Fatal("incomparable values reported equal")
	}
}

func TestPSErrorUnwrap(t *testing.T) {
	cause := errors.New("root cause")
	err := psErr("publish", cause)
	if !errors.Is(err, cause) {
		t.Fatal("Unwrap chain broken")
	}
	var pse *PSError
	if !errors.As(err, &pse) || pse.Op != "publish" {
		t.Fatalf("As failed: %v", err)
	}
	if pse.Error() == "" {
		t.Fatal("empty message")
	}
	if psErr("x", nil) != nil {
		t.Fatal("nil cause should yield nil")
	}
}

func TestAdapterFuncs(t *testing.T) {
	called := 0
	cb := CallBackFunc[string](func(s string) error {
		called++
		if s != "ev" {
			t.Fatalf("got %q", s)
		}
		return nil
	})
	if err := cb.Handle("ev"); err != nil || called != 1 {
		t.Fatalf("callback adapter: %v, %d", err, called)
	}
	var caught error
	exh := ExceptionHandlerFunc(func(err error) { caught = err })
	boom := errors.New("boom")
	exh.HandleException(boom)
	if caught != boom {
		t.Fatal("exception adapter dropped the error")
	}
}

func TestDefaultStr(t *testing.T) {
	if defaultStr("", "d") != "d" || defaultStr("x", "d") != "x" {
		t.Fatal("defaultStr wrong")
	}
}

// TestConfigReachesEveryRendezvousService pins the configuration path:
// NewPlatform builds one rendezvous.Config from tps.Config, and the
// peer's one rendezvous service — every rendezvous service it runs,
// whatever groups it joins — is constructed from that value whole. The
// net group is kept out of the log by a rule of the service, not by a
// second configuration.
func TestConfigReachesEveryRendezvousService(t *testing.T) {
	wan := netsim.New(netsim.Config{})
	defer wan.Close()
	node, err := wan.AddNode("rdv")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Name:                "rdv",
		Rendezvous:          true,
		Seeds:               []string{"mem://s1", "mem://s2"},
		LeaseTTL:            7 * time.Second,
		LogDir:              t.TempDir(),
		ReplicaSeeds:        []string{"mem://r2"},
		ReplicaSyncInterval: 3 * time.Second,
		Failover:            true,
	}
	p, err := NewPlatform(cfg, WithTransport(memnet.New(node)))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	p.peer.Rendezvous().Join(jid.FromSeed(jid.KindGroup, 1).String())
	got := p.peer.Rendezvous().Config()
	for _, f := range []struct {
		name      string
		got, want any
	}{
		{"Role", got.Role, rendezvous.RoleRendezvous},
		{"Seeds", got.Seeds, []endpoint.Address{"mem://s1", "mem://s2"}},
		{"LeaseTTL", got.LeaseTTL, cfg.LeaseTTL},
		{"Log", got.Log, p.log},
		{"Tracer", got.Tracer, p.eng.Tracer},
		{"ReplicaSeeds", got.ReplicaSeeds, []endpoint.Address{"mem://r2"}},
		{"SyncInterval", got.SyncInterval, cfg.ReplicaSyncInterval},
		{"ActiveStandby", got.ActiveStandby, true},
	} {
		if !reflect.DeepEqual(f.got, f.want) {
			t.Errorf("%s = %v, want %v", f.name, f.got, f.want)
		}
	}
}

// TestLogOwnerIsWrittenOnceAndKept: a log directory names its peer on
// first use and every time after; a file that does not hold an ID fails
// the boot instead of passing for a new identity over old history.
func TestLogOwnerIsWrittenOnceAndKept(t *testing.T) {
	dir := t.TempDir()
	first, err := logOwner(dir)
	if err != nil || first.IsZero() {
		t.Fatalf("first use: %v, %v", first, err)
	}
	if again, err := logOwner(dir); err != nil || again != first {
		t.Fatalf("second use: %v, %v; want %v", again, err, first)
	}
	if other, _ := logOwner(t.TempDir()); other == first {
		t.Fatal("two directories share an identity")
	}
	if err := os.WriteFile(filepath.Join(dir, peerIDFile), []byte("not an id"), 0o644); err != nil {
		t.Fatal(err)
	}
	if id, err := logOwner(dir); err == nil {
		t.Fatalf("a garbled %s read as %v", peerIDFile, id)
	}
}
