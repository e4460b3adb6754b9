package federation_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"borgmoea/internal/core"
	"borgmoea/internal/federation"
	"borgmoea/internal/master"
	"borgmoea/internal/parallel"
	"borgmoea/internal/problems"
	"borgmoea/internal/stats"
	"borgmoea/internal/wire"
)

func archiveBytes(t testing.TB, a *core.Archive) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := core.SaveArchive(&buf, a); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func newLogs(k int) ([]*master.Log, []*federation.MigrantLog) {
	logs := make([]*master.Log, k)
	mlogs := make([]*federation.MigrantLog, k)
	for i := range logs {
		logs[i] = master.NewLog()
		mlogs[i] = federation.NewMigrantLog()
	}
	return logs, mlogs
}

// fastConn keeps loopback heartbeats snappy in short test runs.
var fastConn = wire.Options{Heartbeat: 50 * time.Millisecond, IdleTimeout: 10 * time.Second}

// TestMigrantLogRejectsTracedFrames: a migrant sidecar holding a frame
// of the retired version-2 traced encoding — a trace header between tag
// and body — fails to read with an error naming the version, while the
// same sidecar's untraced frames still read.
func TestMigrantLogRejectsTracedFrames(t *testing.T) {
	mg := &wire.Migrant{Island: 1, Epoch: 2, SolID: 3, Operator: 4, Vars: []float64{0.5}, Objs: []float64{1, 2}}
	ml := federation.NewMigrantLog()
	ml.Record(mg)
	var side bytes.Buffer
	if _, err := ml.WriteTo(&side); err != nil {
		t.Fatal(err)
	}
	untraced := side.Len()

	// The version-2 frame: version 2, tag, header length 17, trace id,
	// span id, flags, then the version-1 body and a CRC over it all.
	frame := wire.AppendFrame(nil, mg)
	payload := []byte{2, byte(wire.TagMigrant), 17}
	payload = binary.BigEndian.AppendUint64(payload, 0x1234) // trace id
	payload = binary.BigEndian.AppendUint64(payload, 0x5678) // span id
	payload = append(payload, 1)                             // flags: sampled
	payload = append(payload, frame[6:len(frame)-4]...)
	payload = binary.BigEndian.AppendUint32(payload, crc32.ChecksumIEEE(payload))
	side.Write(binary.BigEndian.AppendUint32(nil, uint32(len(payload))))
	side.Write(payload)

	path := filepath.Join(t.TempDir(), "island-0.migrants")
	if err := os.WriteFile(path, side.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := federation.ReadMigrantLog(f); err == nil || !strings.Contains(err.Error(), "protocol version 2") {
		t.Fatalf("traced sidecar read with error %v, want one naming protocol version 2", err)
	}
	l, err := federation.ReadMigrantLog(bytes.NewReader(side.Bytes()[:untraced]))
	if err != nil || l.Len() != 1 {
		t.Fatalf("untraced sidecar read %d migrants, error %v; want 1, nil", l.Len(), err)
	}
}

// TestFederationLoopback is the live half of the ISSUE's acceptance
// demonstration: a real two-island federation over loopback TCP, with
// a controlled T_F (20ms worker delay) and a stretched T_A (5ms
// simulated critical section) so the per-island ceiling P_UB =
// T_F/(2·T_C+T_A) sits near 4 — and the 2×4-worker federation's
// aggregate observed speedup sails past it. The run records BMEL and
// migrant sidecar logs and must replay offline to the byte-identical
// merged archive.
func TestFederationLoopback(t *testing.T) {
	if testing.Short() {
		t.Skip("loopback federation run takes ~2s of wall time")
	}
	const (
		islands = 2
		perIsl  = 200
		every   = 50
	)
	problem := problems.NewDTLZ2(3)
	algCfg := core.Config{Epsilons: core.UniformEpsilons(3, 0.1)}
	logs, mlogs := newLogs(islands)

	cfg := federation.Config{
		Problem:        problem,
		Algorithm:      algCfg,
		Seed:           42,
		Islands:        islands,
		Evaluations:    perIsl,
		MigrationEvery: every,
		Workers:        4,
		WorkerDelay:    stats.NewConstant(0.020),
		SimulateTA:     stats.NewConstant(0.005),
		Conn:           fastConn,
		Logs:           logs,
		MigrantLogs:    mlogs,
	}
	res, err := federation.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}

	if res.TotalEvaluations != islands*perIsl {
		t.Fatalf("completed %d evaluations, want %d", res.TotalEvaluations, islands*perIsl)
	}
	wantMigrants := uint64(islands * (perIsl / every))
	if res.Migrants != wantMigrants {
		t.Fatalf("sent %d migrants around the ring, want %d", res.Migrants, wantMigrants)
	}
	if res.Processors != islands*(1+cfg.Workers) {
		t.Fatalf("federation processors = %d, want %d", res.Processors, islands*(1+cfg.Workers))
	}
	if len(res.MergedFront) == 0 {
		t.Fatal("merged front is empty")
	}

	// The federated scalability roll-up: with T_F = 20ms and T_A >= 5ms
	// the single-master ceiling is ~4 processors; two islands running
	// concurrently must demonstrate aggregate speedup past it.
	fr := res.Federation.Report()
	if fr.Islands != islands {
		t.Fatalf("roll-up has %d islands, want %d", fr.Islands, islands)
	}
	if fr.SingleMasterPUB <= 0 || fr.SingleMasterPUB > 6 {
		t.Fatalf("pooled single-master P_UB = %.2f, want (0, 6] for TF=20ms TA>=5ms", fr.SingleMasterPUB)
	}
	if fr.AggregateObservedSpeedup <= 1.5*fr.SingleMasterPUB {
		t.Fatalf("aggregate observed speedup %.2f does not beat 1.5x the single-master P_UB %.2f",
			fr.AggregateObservedSpeedup, fr.SingleMasterPUB)
	}

	// Offline replay from the BMEL + migrant sidecar logs reproduces the
	// identical merged Result — after a serialization round trip, so the
	// on-disk form is what's proven replayable.
	for i := range logs {
		var lb, mb bytes.Buffer
		if _, err := logs[i].WriteTo(&lb); err != nil {
			t.Fatal(err)
		}
		if logs[i], err = master.ReadLog(&lb); err != nil {
			t.Fatal(err)
		}
		if _, err := mlogs[i].WriteTo(&mb); err != nil {
			t.Fatal(err)
		}
		if mlogs[i], err = federation.ReadMigrantLog(&mb); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := federation.ReplayQuality(problem, algCfg, cfg.Seed, logs, mlogs, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range rep.Islands {
		if got, want := archiveBytes(t, rep.Islands[i].Archive()), archiveBytes(t, res.Islands[i].Archive()); !bytes.Equal(got, want) {
			t.Errorf("island %d: replayed archive differs from the live run's", i)
		}
	}
	if !bytes.Equal(archiveBytes(t, rep.MergedArchive), archiveBytes(t, res.MergedArchive)) {
		t.Fatal("replayed merged archive differs from the live run's")
	}
}

// TestCrossTransportIslandsEquivalence pins the federation's canonical-
// protocol claim: for the same seed, one worker per island and the same
// migration cadence, the DES islands driver (parallel.RunIslands) and
// the loopback-TCP federation drive every island's master through the
// byte-identical logical event sequence — EvMigrant injections
// included — and end with byte-identical per-island and merged
// archives. There is one migration protocol, not one per transport. At
// k = 2 an island's predecessor is also its successor; k = 3 takes the
// ring apart.
func TestCrossTransportIslandsEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("TCP leg skipped in -short mode")
	}
	const (
		perIsl = 400
		every  = 100
	)
	problem := problems.NewDTLZ2(5)
	algCfg := core.Config{Epsilons: core.UniformEpsilons(5, 0.15)}

	for _, islands := range []int{2, 3} {
		t.Run(fmt.Sprintf("k=%d", islands), func(t *testing.T) {
			desLogs, desMlogs := newLogs(islands)
			desRes, err := parallel.RunIslands(parallel.IslandsConfig{
				Base: parallel.Config{
					Problem:     problem,
					Algorithm:   algCfg,
					Processors:  2, // one worker per island: result order is forced
					Evaluations: perIsl,
					TF:          stats.NewConstant(1e-5),
					TA:          stats.NewConstant(1e-6),
					Seed:        42,
				},
				Islands:        islands,
				MigrationEvery: every,
				Logs:           desLogs,
				MigrantLogs:    desMlogs,
			})
			if err != nil {
				t.Fatal(err)
			}

			tcpLogs, tcpMlogs := newLogs(islands)
			tcpRes, err := federation.Run(federation.Config{
				Problem:        problem,
				Algorithm:      algCfg,
				Seed:           42,
				Islands:        islands,
				Evaluations:    perIsl,
				MigrationEvery: every,
				Workers:        1,
				Conn:           fastConn,
				Logs:           tcpLogs,
				MigrantLogs:    tcpMlogs,
			})
			if err != nil {
				t.Fatal(err)
			}

			for i := 0; i < islands; i++ {
				if !bytes.Equal(desLogs[i].CanonicalBytes(), tcpLogs[i].CanonicalBytes()) {
					t.Errorf("island %d: TCP canonical event sequence differs from DES", i)
				}
				if desMlogs[i].Len() != tcpMlogs[i].Len() {
					t.Errorf("island %d: %d migrants over TCP, %d over DES", i, tcpMlogs[i].Len(), desMlogs[i].Len())
				}
				if !bytes.Equal(archiveBytes(t, desRes.Islands[i].Archive()), archiveBytes(t, tcpRes.Islands[i].Archive())) {
					t.Errorf("island %d: TCP archive differs from DES", i)
				}
			}
			desMerged := federation.MergeArchives(algCfg.Epsilons, desRes.Islands)
			if !bytes.Equal(archiveBytes(t, desMerged), archiveBytes(t, tcpRes.MergedArchive)) {
				t.Error("TCP merged archive differs from DES")
			}
			if desRes.Migrants != tcpRes.Migrants {
				t.Errorf("TCP sent %d migrants, DES %d", tcpRes.Migrants, desRes.Migrants)
			}
		})
	}
}

// TestFederationValidation covers the config error paths.
func TestFederationValidation(t *testing.T) {
	problem := problems.NewDTLZ2(2)
	base := federation.Config{
		Problem:     problem,
		Algorithm:   core.Config{Epsilons: core.UniformEpsilons(2, 0.1)},
		Islands:     2,
		Evaluations: 10,
	}
	for name, mutate := range map[string]func(*federation.Config){
		"no problem":         func(c *federation.Config) { c.Problem = nil },
		"zero islands":       func(c *federation.Config) { c.Islands = 0 },
		"zero budget":        func(c *federation.Config) { c.Evaluations = 0 },
		"short logs":         func(c *federation.Config) { c.Logs = []*master.Log{master.NewLog()} },
		"short migrant logs": func(c *federation.Config) { c.MigrantLogs = []*federation.MigrantLog{nil} },
	} {
		cfg := base
		mutate(&cfg)
		if _, err := federation.Run(cfg); err == nil {
			t.Errorf("%s: Run accepted an invalid config", name)
		}
	}
}
