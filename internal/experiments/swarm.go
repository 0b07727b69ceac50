package experiments

import (
	"fmt"
	"os"
	"strings"

	"pandas/internal/core"
	"pandas/internal/swarm"
)

// Swarm runs the multi-process deployment (internal/swarm) as a
// registry experiment: it compiles the pandas-node worker binary from
// the enclosing module, launches o.Nodes real worker processes plus a
// builder process on localhost, drives o.Slots slots over real UDP
// sockets, and harvests the outcomes into the simnet's schema so the
// numbers line up with the in-process experiments. kill is the
// per-slot fraction of worker processes killed mid-slot (0 disables
// fault injection); victims are restarted by the supervisor and must
// rejoin the live deployment.
func Swarm(o Options, kill float64) (*Result, error) {
	n := o.Nodes
	if n == 0 {
		// The simnet default of 1,000 nodes would mean 1,000 OS
		// processes here; default to a single-machine-sized swarm.
		n = 32
	}
	slots := o.Slots
	if slots == 0 {
		slots = 3
	}
	fmt.Fprintln(os.Stderr, "swarm: building pandas-node worker binary...")
	command, cleanup, err := swarm.BuildWorkerCommand()
	if err != nil {
		return nil, err
	}
	defer cleanup()
	run, err := swarm.Run(swarm.Options{
		N:            n,
		Slots:        slots,
		Seed:         o.Seed,
		Geometry:     swarm.DefaultGeometry(),
		KillFraction: kill,
		Command:      command,
	})
	if err != nil {
		return nil, err
	}
	return swarmResult(run), nil
}

// swarmResult wraps a swarm run: the table is the one pandas-swarm
// prints (swarm.Result.Render), and each slot is pooled like a simnet
// slot into a sample labelled by slot number.
func swarmResult(run *swarm.Result) *Result {
	lines := strings.Split(strings.TrimRight(run.Render(), "\n"), "\n")
	res := &Result{Title: lines[0], Footer: lines[1:]}
	deadline := core.DefaultConfig().Deadline
	for _, sr := range run.SlotResults {
		res.Samples = append(res.Samples, pool(fmt.Sprintf("%d", sr.Slot), sr.Outcomes, deadline, nil))
	}
	return res
}
