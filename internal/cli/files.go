package cli

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// IslandPath names island i's artefact of kind ext (bmel, migrants)
// in a federation run directory: the layout borg -islands k
// -event-log writes and borg -replay and borgview read.
func IslandPath(dir string, island int, ext string) string {
	return filepath.Join(dir, fmt.Sprintf("island-%d.%s", island, ext))
}

// PrintFront prints a Pareto approximation on stdout, one solution per
// line, objectives tab-separated.
func PrintFront(front [][]float64) {
	for _, f := range front {
		for j, v := range f {
			if j > 0 {
				fmt.Print("\t")
			}
			fmt.Printf("%.6f", v)
		}
		fmt.Println()
	}
}

// WriteFile creates path and streams content into it via write; a
// failed Close is a failed write.
func WriteFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// WriteLog writes one serialised log to path.
func WriteLog(path string, log io.WriterTo) error {
	return WriteFile(path, func(w io.Writer) error {
		_, err := log.WriteTo(w)
		return err
	})
}

// ReadFile opens path and decodes it via read.
func ReadFile[T any](path string, read func(io.Reader) (T, error)) (T, error) {
	f, err := os.Open(path)
	if err != nil {
		var zero T
		return zero, err
	}
	defer f.Close()
	return read(f)
}
