package cluster

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"catcam/internal/classbench"
	"catcam/internal/core"
	"catcam/internal/rules"
)

// TestSnapshotRoundTrip is the satellite acceptance check: dump a
// cluster (including a rebalanced, non-default interval layout),
// restore it, and require identical classification and an identical
// second dump.
func TestSnapshotRoundTrip(t *testing.T) {
	t.Run("interval", func(t *testing.T) {
		rs := classbench.Generate(classbench.Config{Family: classbench.IPC, Size: 200, Seed: 13})
		c := testCluster(4)
		for _, r := range rs.Rules {
			if _, err := c.InsertRule(r); err != nil {
				t.Fatal(err)
			}
		}
		// Skew the layout away from the config default so the dump
		// must carry the live bounds, not the initial ones.
		for i := 0; i < 5; i++ {
			c.RebalanceOnce(16)
		}

		var buf bytes.Buffer
		if err := c.WriteSnapshot(&buf); err != nil {
			t.Fatal(err)
		}
		dump := buf.Bytes()
		snap, err := ReadSnapshot(bytes.NewReader(dump))
		if err != nil {
			t.Fatal(err)
		}
		restored, err := Restore(snap)
		if err != nil {
			t.Fatal(err)
		}

		if err := restored.CheckInvariant(); err != nil {
			t.Fatal(err)
		}
		if got, want := restored.ShardEntries(), c.ShardEntries(); len(got) != len(want) {
			t.Fatalf("shard count %d != %d", len(got), len(want))
		} else {
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("shard %d entries %d != %d (layout not preserved)", i, got[i], want[i])
				}
			}
		}

		hs := classbench.PacketTrace(rs, 1000, 0.9, 17)
		got := restored.LookupHeaderBatch(hs, nil)
		want := c.LookupHeaderBatch(hs, nil)
		for i := range hs {
			if got[i].OK != want[i].OK ||
				(got[i].OK && got[i].Entry.Rank.RuleID != want[i].Entry.Rank.RuleID) {
				t.Fatalf("header %d: restored %+v, original %+v", i, got[i], want[i])
			}
		}

		// Determinism: a second dump of the restored cluster is
		// byte-identical to the first dump.
		var buf2 bytes.Buffer
		if err := restored.WriteSnapshot(&buf2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(dump, buf2.Bytes()) {
			t.Fatal("snapshot round trip is not byte-stable")
		}
	})
}

func TestSnapshotRejectsGarbage(t *testing.T) {
	if _, err := ReadSnapshot(bytes.NewReader([]byte("{"))); err == nil {
		t.Fatal("truncated JSON accepted")
	}
	if _, err := ReadSnapshot(bytes.NewReader([]byte(`{"shards":[]}`))); err == nil {
		t.Fatal("empty shards accepted")
	}
}

func TestRestoreRejectsDuplicateIDs(t *testing.T) {
	r := clRule(1, 10, rules.Prefix{Len: 0})
	snap := &Snapshot{
		Device: testDeviceConfig(),
		Shards: [][]rules.Rule{{r}, {r}},
	}
	if _, err := Restore(snap); err == nil {
		t.Fatal("duplicate rule ID across shards accepted")
	}
}

// restoreProbes are snapshots a careless or hostile writer could hand
// to ReadSnapshot + Restore; each must come back as an error. The first
// four used to panic inside core.NewDevice or New, the fifth restored
// into a cluster whose own CheckInvariant failed (and whose interval
// arbiter, trusting shard order, would answer wrongly), the next two
// carry rule bodies the device cannot encode. The last is a two-shard
// dump in the older format of the retired hash partition, which has no
// bounds.
var restoreProbes = []struct{ name, blob string }{
	{"no device field", `{"shards":[[]]}`},
	{"negative subtable capacity", `{"device":{"Subtables":4,"SubtableCapacity":-1,"KeyWidth":160},"shards":[[]]}`},
	{"key width 8", `{"device":{"Subtables":4,"SubtableCapacity":4,"KeyWidth":8},"shards":[[]]}`},
	{"descending bounds", `{"bounds":[200,100],"device":{"Subtables":4,"SubtableCapacity":4,"KeyWidth":160},"shards":[[],[],[]]}`},
	{"rule filed under the wrong shard", `{"bounds":[100],"device":{"Subtables":4,"SubtableCapacity":4,"KeyWidth":160},
		"shards":[[{"ID":1,"Priority":500,"SrcPort":{"Lo":0,"Hi":65535},"DstPort":{"Lo":0,"Hi":65535},"ProtoWildcard":true}],[]]}`},
	{"rule with an empty port range", `{"device":{"Subtables":4,"SubtableCapacity":4,"KeyWidth":160},
		"shards":[[{"ID":1,"Priority":5,"SrcPort":{"Lo":9,"Hi":3},"DstPort":{"Lo":0,"Hi":65535},"ProtoWildcard":true}]]}`},
	{"rule with a 99-bit prefix", `{"device":{"Subtables":4,"SubtableCapacity":4,"KeyWidth":160},
		"shards":[[{"ID":1,"Priority":5,"SrcIP":{"Addr":1,"Len":99},"SrcPort":{"Lo":0,"Hi":65535},"DstPort":{"Lo":0,"Hi":65535},"ProtoWildcard":true}]]}`},
	{"hash partition dump", `{"mode":"hash","device":{"Subtables":4,"SubtableCapacity":8,"KeyWidth":160,"FrequencyMHz":0,"ChainedReallocation":false},
		"shards":[[{"ID":1,"Priority":7,"SrcIP":{"Addr":167772160,"Len":8},"DstIP":{"Addr":0,"Len":0},"SrcPort":{"Lo":0,"Hi":65535},"DstPort":{"Lo":0,"Hi":65535},"Proto":0,"ProtoWildcard":true,"Action":10}],
		[{"ID":2,"Priority":40000,"SrcIP":{"Addr":167772160,"Len":16},"DstIP":{"Addr":0,"Len":0},"SrcPort":{"Lo":0,"Hi":65535},"DstPort":{"Lo":0,"Hi":65535},"Proto":0,"ProtoWildcard":true,"Action":20}]]}`},
}

// intervalModeDump is a two-shard interval dump in the older format,
// which named the partition in a "mode" field. It still restores.
const intervalModeDump = `{"mode":"interval","bounds":[32768],"device":{"Subtables":4,"SubtableCapacity":8,"KeyWidth":160,"FrequencyMHz":0,"ChainedReallocation":false},
	"shards":[[{"ID":1,"Priority":7,"SrcIP":{"Addr":167772160,"Len":8},"DstIP":{"Addr":0,"Len":0},"SrcPort":{"Lo":0,"Hi":65535},"DstPort":{"Lo":0,"Hi":65535},"Proto":0,"ProtoWildcard":true,"Action":10}],
	[{"ID":2,"Priority":40000,"SrcIP":{"Addr":167772160,"Len":16},"DstIP":{"Addr":0,"Len":0},"SrcPort":{"Lo":0,"Hi":65535},"DstPort":{"Lo":0,"Hi":65535},"Proto":0,"ProtoWildcard":true,"Action":20}]]}`

// restoreBlob is the whole outside-input path: parse, validate, build.
func restoreBlob(blob []byte) (*Cluster, error) {
	snap, err := ReadSnapshot(bytes.NewReader(blob))
	if err != nil {
		return nil, err
	}
	return Restore(snap)
}

func TestRestoreRejectsHostileSnapshots(t *testing.T) {
	for _, p := range restoreProbes {
		t.Run(p.name, func(t *testing.T) {
			c, err := restoreBlob([]byte(p.blob))
			if err == nil {
				t.Fatalf("restored without error (CheckInvariant: %v)", c.CheckInvariant())
			}
		})
	}
	// Restore also takes a Snapshot built in memory, which never went
	// through ReadSnapshot.
	if _, err := Restore(&Snapshot{Shards: [][]rules.Rule{{}}}); err == nil {
		t.Fatal("in-memory snapshot without a device config accepted")
	}
	t.Run("interval dump with a mode field restores", func(t *testing.T) {
		c, err := restoreBlob([]byte(intervalModeDump))
		if err != nil {
			t.Fatal(err)
		}
		want, err := ReadSnapshot(strings.NewReader(intervalModeDump))
		if err != nil {
			t.Fatal(err)
		}
		if got := c.Snapshot(); !reflect.DeepEqual(got, want) {
			t.Fatalf("snapshot after restore %+v, want %+v", got, want)
		}
	})
}

// FuzzRestoreSnapshot: whatever the bytes, ReadSnapshot + Restore
// return an error or a cluster that holds every rule of the blob and
// passes its own CheckInvariant; they never panic.
func FuzzRestoreSnapshot(f *testing.F) {
	for _, p := range restoreProbes {
		f.Add([]byte(p.blob))
	}
	c := New(Config{Shards: 2, Device: core.Config{Subtables: 4, SubtableCapacity: 8, KeyWidth: 160}})
	for i, prio := range []int{7, 40000, 40000, 65535} {
		if _, err := c.InsertRule(clRule(i, prio, rules.Prefix{Addr: 0x0A000000, Len: 8 * i})); err != nil {
			f.Fatal(err)
		}
	}
	var valid bytes.Buffer
	if err := c.WriteSnapshot(&valid); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	f.Add([]byte(intervalModeDump))

	f.Fuzz(func(t *testing.T, blob []byte) {
		snap, err := ReadSnapshot(bytes.NewReader(blob))
		if err != nil {
			return
		}
		// A valid geometry can still be too large to build in a fuzz
		// worker; the interesting inputs are small.
		if d := snap.Device; d.Subtables > 64 || d.SubtableCapacity > 64 || d.KeyWidth > 640 || len(snap.Shards) > 8 {
			t.Skip("geometry beyond the fuzz budget")
		}
		c, err := Restore(snap)
		if err != nil {
			return
		}
		want := 0
		for _, rs := range snap.Shards {
			want += len(rs)
		}
		if c.Len() != want {
			t.Fatalf("restored %d rules of %d", c.Len(), want)
		}
		if err := c.CheckInvariant(); err != nil {
			t.Fatal(err)
		}
	})
}
