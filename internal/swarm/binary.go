package swarm

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
)

// NodeBinaryCommand returns a WorkerCommand that launches the
// pandas-node binary at bin in swarm worker mode. The supervisor
// appends the -swarm/-index flags itself.
func NodeBinaryCommand(bin string) WorkerCommand {
	return func(index int) *exec.Cmd {
		return exec.Command(bin)
	}
}

// BuildWorkerCommand compiles cmd/pandas-node into a temporary directory
// and returns the WorkerCommand that launches it, with the function that
// removes the directory again. It is how pandas-swarm and the swarm
// experiment get workers when no prebuilt binary is supplied, and requires
// running inside the module tree.
func BuildWorkerCommand() (WorkerCommand, func(), error) {
	root, err := moduleRoot()
	if err != nil {
		return nil, nil, err
	}
	dir, err := os.MkdirTemp("", "pandas-swarm-*")
	if err != nil {
		return nil, nil, err
	}
	bin := filepath.Join(dir, "pandas-node")
	cmd := exec.Command("go", "build", "-o", bin, "pandas/cmd/pandas-node")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		_ = os.RemoveAll(dir)
		return nil, nil, fmt.Errorf("swarm: build pandas-node: %v\n%s", err, out)
	}
	return NodeBinaryCommand(bin), func() { _ = os.RemoveAll(dir) }, nil
}

// moduleRoot walks up from the working directory to the go.mod.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("swarm: go.mod not found above %s (pass an explicit worker binary)", dir)
		}
		dir = parent
	}
}
