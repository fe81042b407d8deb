package main

import (
	"bytes"
	"io"
	"reflect"
	"strings"
	"testing"
)

// TestSubcommandAliasEquivalence pins the end of the CLI migration. The
// pre-subcommand mode flags (-worker, -coordinator, -replica, -watch,
// -serve-file) are gone: each old spelling is an unknown-flag error,
// reported on the writer parseArgs was given. Each subcommand still
// parses, silently, to exactly the configuration its alias used to select
// — the defaults plus the fields listed here.
func TestSubcommandAliasEquivalence(t *testing.T) {
	defaults, err := parseArgs(nil, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name       string
		removed    []string // the old spelling
		flag       string   // the flag it falls over
		subcommand []string
		want       func(f *daemonFlags)
	}{
		{
			"worker",
			[]string{"-worker", "-listen", "127.0.0.1:0"}, "-worker",
			[]string{"worker", "-listen", "127.0.0.1:0"},
			func(f *daemonFlags) { f.workerMode, f.listen = true, "127.0.0.1:0" },
		},
		{
			"coordinator",
			[]string{"-coordinator", "-workers", "a:1,b:2", "-shards", "4"}, "-coordinator",
			[]string{"coordinator", "-workers", "a:1,b:2", "-shards", "4"},
			func(f *daemonFlags) { f.coordinator, f.workers, f.shards = true, "a:1,b:2", 4 },
		},
		{
			"replica",
			[]string{"-replica", "-upstream", "o:9", "-serve", "127.0.0.1:0"}, "-replica",
			[]string{"replica", "-upstream", "o:9", "-serve", "127.0.0.1:0"},
			func(f *daemonFlags) { f.replicaMode, f.upstream, f.serve = true, "o:9", "127.0.0.1:0" },
		},
		{
			"watch",
			[]string{"-watch", "http://o/v1/watch", "-epochs", "3"}, "-watch",
			[]string{"watch", "http://o/v1/watch", "-epochs", "3"},
			func(f *daemonFlags) { f.watchURL, f.epochs = "http://o/v1/watch", 3 },
		},
		{
			"watch operand after flags",
			[]string{"-epochs", "3", "-watch", "http://o/v1/watch"}, "-watch",
			[]string{"watch", "-epochs", "3", "http://o/v1/watch"},
			func(f *daemonFlags) { f.watchURL, f.epochs = "http://o/v1/watch", 3 },
		},
		{
			"serve",
			[]string{"-serve-file", "inv.gpsv", "-serve", "127.0.0.1:0"}, "-serve-file",
			[]string{"serve", "inv.gpsv", "-serve", "127.0.0.1:0"},
			func(f *daemonFlags) { f.serveFile, f.serve = "inv.gpsv", "127.0.0.1:0" },
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var oldErr, newErr bytes.Buffer
			unknown := "flag provided but not defined: " + tc.flag
			if _, err := parseArgs(tc.removed, &oldErr); err == nil || err.Error() != unknown {
				t.Errorf("removed spelling %v: err = %v; want %q", tc.removed, err, unknown)
			}
			if !strings.Contains(oldErr.String(), unknown) {
				t.Errorf("removed spelling printed %q; want it to name the flag", oldErr.String())
			}
			got, err := parseArgs(tc.subcommand, &newErr)
			if err != nil {
				t.Fatalf("subcommand form: %v", err)
			}
			want := defaults
			tc.want(&want)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("parse mismatch:\n got: %+v\nwant: %+v", got, want)
			}
			if newErr.String() != "" {
				t.Errorf("subcommand form printed: %q", newErr.String())
			}
		})
	}
}

func TestParseArgsClusterFlags(t *testing.T) {
	var errBuf bytes.Buffer
	f, err := parseArgs([]string{
		"coordinator", "-workers", "a:1", "-cluster", "127.0.0.1:7700", "-admin",
	}, &errBuf)
	if err != nil {
		t.Fatal(err)
	}
	if !f.coordinator || f.cluster != "127.0.0.1:7700" || !f.admin {
		t.Errorf("cluster flags: %+v", f)
	}
	// The latency rebalancer is gone; its flag is an unknown-flag error
	// like the other retired spellings.
	const unknown = "flag provided but not defined: -rebalance-factor"
	errBuf.Reset()
	if _, err := parseArgs([]string{"coordinator", "-workers", "a:1", "-rebalance-factor", "2.5"}, &errBuf); err == nil || err.Error() != unknown {
		t.Errorf("-rebalance-factor: err = %v; want %q", err, unknown)
	}
	if !strings.Contains(errBuf.String(), unknown) {
		t.Errorf("-rebalance-factor printed %q; want it to name the flag", errBuf.String())
	}

	f, err = parseArgs([]string{"worker", "-join", "127.0.0.1:7700", "-name", "w4", "-leave"}, &errBuf)
	if err != nil {
		t.Fatal(err)
	}
	if !f.workerMode || f.joinAddr != "127.0.0.1:7700" || f.workerName != "w4" || !f.leave {
		t.Errorf("join flags: %+v", f)
	}
}

func TestParseArgsErrors(t *testing.T) {
	var errBuf bytes.Buffer
	if _, err := parseArgs([]string{"frobnicate"}, &errBuf); err == nil {
		t.Error("unknown subcommand accepted")
	}
	if _, err := parseArgs([]string{"watch"}, &errBuf); err == nil {
		t.Error("watch without URL accepted")
	}
	// A checkpoint re-shards by resuming with another -shards; the
	// offline split/join subcommand is gone.
	if _, err := parseArgs([]string{"rebalance", "split", "-checkpoint", "c.ckpt"}, &errBuf); err == nil || !strings.Contains(err.Error(), `unknown subcommand "rebalance"`) {
		t.Errorf("rebalance subcommand: err = %v; want an unknown subcommand", err)
	}
	if _, err := parseArgs([]string{"-no-such-flag"}, &errBuf); err == nil {
		t.Error("unknown flag accepted")
	}
}
