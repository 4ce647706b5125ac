// Package analysis_test pins the load-bearing //catcam: annotations in
// the real tree. The analyzers prove properties of whatever is marked;
// this test proves the marks themselves are still there, so deleting a
// single //catcam:snapshot, ring-role, scratch, or guarded-by
// annotation from a hot type fails `go test ./internal/analysis/...`
// (and with it `make lint-selftest`) even when the deletion would
// otherwise merely shrink an analyzer's proof domain instead of
// tripping a finding.
package analysis_test

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// pin describes one required annotation: the directive must appear in
// file within the 40 lines preceding (and including) the anchor line.
type pin struct {
	file      string // repo-relative
	directive string // e.g. "//catcam:snapshot"
	anchor    string // regexp matched against single source lines
}

var pins = []pin{
	// Epoch publication: the types the classify path reads via
	// Device.snap must stay under epochcheck's write-dead proof.
	{"internal/core/snapshot.go", "//catcam:snapshot", `^type snapshot struct`},
	{"internal/core/snapshot.go", "//catcam:snapshot", `^type subtableView struct`},
	{"internal/sram/view.go", "//catcam:snapshot", `^type TernaryView struct`},
	{"internal/sram/view.go", "//catcam:snapshot", `^type MatrixView struct`},
	{"internal/sram/view.go", "//catcam:snapshot", `^type careLines struct`},
	// The cluster's cut: the one vector of shard views a classify round
	// reads, through Cluster.cut.
	{"internal/core/device.go", "//catcam:snapshot", `^type View struct`},
	{"internal/cluster/cluster.go", "//catcam:snapshot", `^type cut struct`},

	// SPSC ring roles: each mutating end of the ingress ring must keep
	// its role mark, or ringcheck's cursor-ownership proof loses it.
	{"internal/ingress/ring.go", "//catcam:ring-producer", `func \(r \*Ring\) TryPush\(`},
	{"internal/ingress/ring.go", "//catcam:ring-producer", `func \(r \*Ring\) PushBatch\(`},
	{"internal/ingress/ring.go", "//catcam:ring-consumer", `func \(r \*Ring\) PopBatch\(`},
	{"internal/ingress/ingress.go", "//catcam:ring-producer", `func \(e \*Engine\) Dispatch\(`},
	{"internal/ingress/ingress.go", "//catcam:ring-consumer", `func \(w \*worker\) run\(`},

	// Pooled scratch: the per-goroutine working sets cycled through
	// sync.Pools must stay under poolcheck's escape proof.
	{"internal/core/snapshot.go", "//catcam:scratch", `^type readScratch struct`},
	{"internal/flowtable/flowtable.go", "//catcam:scratch", `^type classifyScratch struct`},
	{"internal/cluster/cluster.go", "//catcam:scratch", `^type fanRound struct`},

	// Lock discipline: the mutex fields feeding lockcheck's
	// guarded-access proof and its module-wide acquisition graph.
	{"internal/core/device.go", "//catcam:guarded-by mu", `subs\s+\[\]\*Subtable`},
	{"internal/cluster/cluster.go", "//catcam:guarded-by routeMu", `owner\s+map\[int\]ownedRule`},
}

func TestLoadBearingAnnotationsPresent(t *testing.T) {
	root := repoRoot(t)
	for _, p := range pins {
		src, err := os.ReadFile(filepath.Join(root, p.file))
		if err != nil {
			t.Errorf("%s: %v", p.file, err)
			continue
		}
		lines := strings.Split(string(src), "\n")
		re := regexp.MustCompile(p.anchor)
		anchorAt := -1
		for i, line := range lines {
			if re.MatchString(line) {
				anchorAt = i
				break
			}
		}
		if anchorAt < 0 {
			t.Errorf("%s: anchor %q not found — if the declaration moved, update this pin", p.file, p.anchor)
			continue
		}
		lo := anchorAt - 40
		if lo < 0 {
			lo = 0
		}
		found := false
		for i := lo; i <= anchorAt; i++ {
			if strings.Contains(lines[i], p.directive) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("%s:%d: %q near %q was deleted: this annotation is load-bearing — the analyzers prove concurrency properties of what it marks",
				p.file, anchorAt+1, p.directive, p.anchor)
		}
	}
}

// repoRoot walks up from the test's working directory to the module
// root (the directory holding go.mod).
func repoRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("go.mod not found above test directory")
		}
		dir = parent
	}
}
