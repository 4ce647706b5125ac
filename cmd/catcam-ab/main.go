// Command catcam-ab judges an in-tree benchmark rung between two
// commits: it builds each commit's test binary for one package once,
// runs both N times in alternating order, and prints, per rung, the
// median of the paired time ratios (B over A) and a sign-test verdict.
//
//	catcam-ab [-n 10] [-benchtime 1s] [-graft files] -bench <pkg> <regexp> <shaA> <shaB>
//
// Each commit is unpacked with git archive into a scratch directory
// (-dir, removed afterwards), so the repository's own checkout, index
// and worktree list are left alone. -graft names files, relative to the
// module root and comma-separated, that are copied from B's tree into
// A's before building: the way to time against its parent a rung that
// B adds, provided the file compiles against A.
//
// A verdict is better or worse when the sign test over the pairs
// rejects "no difference" at p < 0.05 and the median ratio lies more
// than 3 % from 1 in the same direction; same when the median lies
// within 3 %; unresolved otherwise (judge). Flags go before -bench.
package main

import (
	"archive/tar"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

func main() {
	bench := flag.Bool("bench", false, "judge the rungs <regexp> of package <pkg> between <shaA> and <shaB>")
	n := flag.Int("n", 10, "pairs of runs; at least 10")
	benchtime := flag.String("benchtime", "1s", "-test.benchtime of each run")
	graft := flag.String("graft", "", "comma-separated files copied from B's tree into A's before building")
	dir := flag.String("dir", os.TempDir(), "scratch directory the trees are unpacked and built in")
	flag.Parse()
	if !*bench || flag.NArg() != 4 || *n < 10 {
		fmt.Fprintln(os.Stderr, "usage: catcam-ab [-n 10] [-benchtime 1s] [-graft files] -bench <pkg> <regexp> <shaA> <shaB>")
		os.Exit(2)
	}
	pkg, re, revA, revB := flag.Arg(0), flag.Arg(1), flag.Arg(2), flag.Arg(3)
	var grafts []string
	if *graft != "" {
		grafts = strings.Split(*graft, ",")
	}
	if err := run(os.Stdout, pkg, re, revA, revB, grafts, *dir, *benchtime, *n); err != nil {
		fmt.Fprintln(os.Stderr, "catcam-ab:", err)
		os.Exit(1)
	}
}

// run builds both sides, runs the pairs and prints the report to w.
func run(w io.Writer, pkg, re, revA, revB string, grafts []string, dir, benchtime string, n int) error {
	shaA, err := git("rev-parse", "--verify", revA+"^{commit}")
	if err != nil {
		return err
	}
	shaB, err := git("rev-parse", "--verify", revB+"^{commit}")
	if err != nil {
		return err
	}
	scratch, err := os.MkdirTemp(dir, "catcam-ab-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(scratch)
	treeA, treeB := filepath.Join(scratch, "a"), filepath.Join(scratch, "b")
	for _, t := range []struct{ sha, dir string }{{shaA, treeA}, {shaB, treeB}} {
		if err := unpack(t.sha, t.dir); err != nil {
			return err
		}
	}
	for _, f := range grafts {
		if err := copyFile(filepath.Join(treeB, f), filepath.Join(treeA, f)); err != nil {
			return fmt.Errorf("graft %s: %w", f, err)
		}
	}
	bins := [2]string{filepath.Join(scratch, "a.test"), filepath.Join(scratch, "b.test")}
	for i, tree := range []string{treeA, treeB} {
		cmd := exec.Command("go", "test", "-c", "-o", bins[i], "./"+strings.TrimPrefix(pkg, "./"))
		cmd.Dir = tree
		if out, err := cmd.CombinedOutput(); err != nil {
			return fmt.Errorf("build %s in %s: %v\n%s", pkg, tree, err, out)
		}
	}

	pairs := map[string][]pair{}
	var names []string
	for i := 0; i < n; i++ {
		var got [2]map[string]float64
		for _, side := range [2]int{i % 2, 1 - i%2} { // A first on even pairs, B first on odd
			tree := []string{treeA, treeB}[side]
			res, err := runBench(bins[side], filepath.Join(tree, pkg), re, benchtime)
			if err != nil {
				return err
			}
			got[side] = res
		}
		for name, a := range got[0] {
			b, ok := got[1][name]
			if !ok {
				continue
			}
			if _, seen := pairs[name]; !seen {
				names = append(names, name)
			}
			pairs[name] = append(pairs[name], pair{A: a, B: b})
		}
	}
	if len(names) == 0 {
		return fmt.Errorf("no rung matching %q ran on both sides of %s", re, pkg)
	}

	fmt.Fprintf(w, "A %s\nB %s\n", shaA, shaB)
	fmt.Fprintf(w, "package %s, rungs %q, grafted %v\n", pkg, re, grafts)
	fmt.Fprintf(w, "host %s/%s, %d CPUs, GOMAXPROCS %d; %d pairs, alternating which side runs first; -benchtime %s; alpha %.2f, tol %.2f\n",
		runtime.GOOS, runtime.GOARCH, runtime.NumCPU(), runtime.GOMAXPROCS(0), n, benchtime, alpha, tol)
	fmt.Fprintf(w, "%-44s %12s %12s %7s %6s %7s  %s\n", "rung", "A ns/op", "B ns/op", "B/A", "B+:B-", "p", "verdict")
	for _, name := range names {
		v := judge(pairs[name])
		fmt.Fprintf(w, "%-44s %12.1f %12.1f %7.3f %3d:%-2d %7.4f  %s\n",
			name, v.medA, v.medB, v.ratio, v.better, v.worse, v.p, v.verdict)
	}
	for _, name := range names {
		fmt.Fprintf(w, "pairs %s:", name)
		for _, p := range pairs[name] {
			fmt.Fprintf(w, " %.4g/%.4g", p.A, p.B)
		}
		fmt.Fprintln(w)
	}
	return nil
}

// git runs a git command in the working directory and returns its
// trimmed output.
func git(args ...string) (string, error) {
	out, err := exec.Command("git", args...).Output()
	if err != nil {
		var ee *exec.ExitError
		if errors.As(err, &ee) {
			return "", fmt.Errorf("git %s: %v: %s", strings.Join(args, " "), err, ee.Stderr)
		}
		return "", err
	}
	return strings.TrimSpace(string(out)), nil
}

// unpack writes the tree of commit sha into dir, from git archive.
func unpack(sha, dir string) error {
	cmd := exec.Command("git", "archive", "--format=tar", sha)
	out, err := cmd.StdoutPipe()
	if err != nil {
		return err
	}
	if err := cmd.Start(); err != nil {
		return err
	}
	tr := tar.NewReader(out)
	for {
		h, err := tr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		path := filepath.Join(dir, filepath.FromSlash(h.Name))
		if !strings.HasPrefix(path, filepath.Clean(dir)+string(os.PathSeparator)) {
			return fmt.Errorf("archive entry %q leaves the tree", h.Name)
		}
		switch h.Typeflag {
		case tar.TypeDir:
			err = os.MkdirAll(path, 0o755)
		case tar.TypeReg:
			err = writeFile(path, tr, os.FileMode(h.Mode)&0o777)
		}
		if err != nil {
			return err
		}
	}
	return cmd.Wait()
}

// copyFile copies the file at from to to.
func copyFile(from, to string) error {
	f, err := os.Open(from)
	if err != nil {
		return err
	}
	defer f.Close()
	return writeFile(to, f, 0o644)
}

// writeFile writes r's contents to a new file at path.
func writeFile(path string, r io.Reader, mode os.FileMode) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, mode)
	if err != nil {
		return err
	}
	if _, err := io.Copy(f, r); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runBench runs the rungs matching re once each from the test binary
// bin, in the package directory dir, and returns their ns/op.
func runBench(bin, dir, re, benchtime string) (map[string]float64, error) {
	cmd := exec.Command(bin, "-test.run", "^$", "-test.bench", re, "-test.benchtime", benchtime, "-test.count", "1")
	cmd.Dir = dir
	out, err := cmd.CombinedOutput()
	if err != nil {
		return nil, fmt.Errorf("%s: %v\n%s", bin, err, out)
	}
	return parseBench(string(out)), nil
}
