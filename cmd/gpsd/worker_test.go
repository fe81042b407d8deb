package main

import (
	"encoding/binary"
	"math"
	"strings"
	"testing"

	"gps/internal/shard/transport"
)

// testWorkerSpec builds the enveloped spec a coordinator would deliver
// to a worker owning the given shards of an n-way split of testWorldID()'s
// world.
func testWorkerSpec(t *testing.T, shards int, owned ...int) []byte {
	t.Helper()
	return transport.EncodeWorldSpec(testWorldID().header(), shards, owned)
}

func buildDemoWorld(t *testing.T, shards int, owned ...int) *demoWorld {
	t.Helper()
	w, err := newDemoWorld(testWorkerSpec(t, shards, owned...))
	if err != nil {
		t.Fatal(err)
	}
	return w.(*demoWorld)
}

// TestDemoWorldRewind: a shard placed behind the world's epoch asks for
// an epoch the world already stepped past; the rewind must land on
// exactly the universe a fresh build reaches at that epoch.
func TestDemoWorldRewind(t *testing.T) {
	w := buildDemoWorld(t, 2, 0)
	u3, err := w.UniverseAt(3)
	if err != nil {
		t.Fatal(err)
	}
	u1, err := w.UniverseAt(1) // rewind
	if err != nil {
		t.Fatal(err)
	}
	want1, err := buildDemoWorld(t, 2, 0).UniverseAt(1)
	if err != nil {
		t.Fatal(err)
	}
	if u1.NumHosts() != want1.NumHosts() || u1.NumServices() != want1.NumServices() {
		t.Fatalf("rewound epoch 1 holds %d hosts / %d services; a fresh build holds %d / %d",
			u1.NumHosts(), u1.NumServices(), want1.NumHosts(), want1.NumServices())
	}
	for _, h := range want1.Hosts() {
		if rh, ok := u1.HostAt(h.IP); !ok || rh.NumServices() != h.NumServices() {
			t.Fatalf("rewound epoch 1 differs from a fresh build at host %v", h.IP)
		}
	}
	if u1.NumHosts() <= u3.NumHosts() {
		t.Errorf("churn did not shrink hosts: epoch 1 %d, epoch 3 %d", u1.NumHosts(), u3.NumHosts())
	}
	u3b, err := w.UniverseAt(3)
	if err != nil {
		t.Fatal(err)
	}
	if u3b.NumHosts() != u3.NumHosts() || u3b.NumServices() != u3.NumServices() {
		t.Errorf("replayed epoch 3 differs: %d/%d hosts, %d/%d services",
			u3b.NumHosts(), u3.NumHosts(), u3b.NumServices(), u3.NumServices())
	}
}

// TestDemoWorldPartitioned: the worker materializes only the owned
// partition, and it matches the full world restricted.
func TestDemoWorldPartitioned(t *testing.T) {
	full := buildDemoWorld(t, 4, 0, 1, 2, 3)
	sub := buildDemoWorld(t, 4, 1)
	if sub.u.NumHosts() >= full.u.NumHosts()/2 {
		t.Fatalf("1-of-4 partition holds %d of %d hosts; want ~1/4", sub.u.NumHosts(), full.u.NumHosts())
	}
	for _, h := range sub.u.Hosts() {
		fh, ok := full.u.HostAt(h.IP)
		if !ok || fh.NumServices() != h.NumServices() {
			t.Fatalf("partitioned host %v differs from full world", h.IP)
		}
	}
}

// TestNewDemoWorldRejectsBadSpecs: a crafted or corrupt spec must come
// back as an error (which the transport turns into a `world spec
// rejected` frame), never a panic that kills the worker process.
func TestNewDemoWorldRejectsBadSpecs(t *testing.T) {
	nanDensity := testWorldID()
	nanDensity.Density = math.NaN()
	hugePrefixes := testWorldID()
	hugePrefixes.Prefixes = 1 << 30

	cases := []struct {
		name string
		spec []byte
	}{
		{"empty", nil},
		{"garbage", []byte("not a spec at all")},
		{"raw header without envelope", testWorldID().header()},
		{"truncated envelope", testWorkerSpec(t, 2, 0)[:6]},
		{"stale header magic", transport.EncodeWorldSpec(append([]byte("GPS3"), testWorldID().header()[4:]...), 2, []int{0})},
		{"owned shard out of range", transport.EncodeWorldSpec(testWorldID().header(), 2, []int{5})},
		{"NaN density", transport.EncodeWorldSpec(nanDensity.header(), 2, []int{0})},
		{"implausible prefix count", transport.EncodeWorldSpec(hugePrefixes.header(), 2, []int{0})},
	}
	for _, c := range cases {
		w, err := newDemoWorld(c.spec)
		if err == nil {
			t.Errorf("%s: newDemoWorld accepted the spec (world %v)", c.name, w)
		}
	}
}

// TestWorkerSpecRoundTrip pins the envelope + header composition the
// coordinator and worker agree on.
func TestWorkerSpecRoundTrip(t *testing.T) {
	id, part, err := parseWorkerSpec(testWorkerSpec(t, 4, 2, 0))
	if err != nil {
		t.Fatal(err)
	}
	if id != testWorldID() {
		t.Errorf("world id = %+v; want %+v", id, testWorldID())
	}
	if part.Count != 4 || len(part.Owned) != 2 || part.Owned[0] != 0 || part.Owned[1] != 2 {
		t.Errorf("partition = %+v; want {Count: 4, Owned: [0 2]} (canonicalized ascending)", part)
	}
}

// TestWorkerSpecErrorNamesMagic: a worker handed an old-format world
// header must name the stale magic so the operator knows which side to
// upgrade.
func TestWorkerSpecErrorNamesMagic(t *testing.T) {
	old := append([]byte("GPS3"), make([]byte, 32)...)
	binary.BigEndian.PutUint64(old[4:], 3)
	_, _, err := parseWorkerSpec(transport.EncodeWorldSpec(old, 2, []int{0}))
	if err == nil || !strings.Contains(err.Error(), "GPS3") || !strings.Contains(err.Error(), checkpointMagic) {
		t.Errorf("stale-magic spec error %q does not name found and expected magic", err)
	}
}
