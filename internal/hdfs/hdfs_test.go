package hdfs

import "testing"

func TestCreateOpen(t *testing.T) {
	fs := New()
	fs.Create("a", 100, 2)
	f, err := fs.Open("a")
	if err != nil {
		t.Fatal(err)
	}
	if f.Name != "a" || f.PaperBytes != 100 || f.Chunks != 2 {
		t.Fatalf("file mismatch: %+v", f)
	}
	if _, err := fs.Open("b"); err == nil {
		t.Fatal("opening a missing file succeeded")
	}
	// Create replaces an entry of the same name.
	fs.Create("a", 7, 1)
	if f, _ := fs.Open("a"); f.PaperBytes != 7 || f.Chunks != 1 {
		t.Fatalf("replaced file mismatch: %+v", f)
	}
}

func TestCreateClampsChunks(t *testing.T) {
	fs := New()
	f := fs.Create("x", 0, 0)
	if f.Chunks != 1 {
		t.Fatalf("Chunks = %d, want 1", f.Chunks)
	}
}

func TestBlocks(t *testing.T) {
	cases := []struct {
		paperBytes int64
		want       int
	}{
		{0, 1},
		{1, 1},
		{BlockSize, 1},
		{BlockSize + 1, 2},
		{10 * BlockSize, 10},
	}
	for _, c := range cases {
		f := &File{PaperBytes: c.paperBytes}
		if got := f.Blocks(); got != c.want {
			t.Errorf("Blocks(%d) = %d, want %d", c.paperBytes, got, c.want)
		}
	}
}

func TestBlocksMatchPaperTable5(t *testing.T) {
	// Table 5 reports the default GraphX partition count (= #blocks of
	// the edge-format file): Twitter 440, WRN 240, UK 1200. The paper's
	// edge files average ~21 bytes/edge for these datasets.
	cases := []struct {
		name  string
		edges int64
		want  int
		tol   int
	}{
		{"twitter", 1_460_000_000, 440, 60},
		{"wrn", 717_000_000, 240, 40},
		{"uk", 3_700_000_000, 1200, 150},
	}
	for _, c := range cases {
		f := &File{PaperBytes: c.edges * EdgeFormatBytesPerEdge}
		got := f.Blocks()
		if got < c.want-c.tol || got > c.want+c.tol {
			t.Errorf("%s: Blocks = %d, want %d±%d", c.name, got, c.want, c.tol)
		}
	}
}

func TestParallelReadSeconds(t *testing.T) {
	// 1000 bytes at 10 B/s: one chunk serializes on one machine.
	if got := ParallelReadSeconds(1000, 8, 1, 10); got != 100 {
		t.Errorf("single chunk: %v, want 100", got)
	}
	// 8 chunks on 8 machines: 8-way parallel.
	if got := ParallelReadSeconds(1000, 8, 8, 10); got != 12.5 {
		t.Errorf("8 chunks: %v, want 12.5", got)
	}
	// More chunks than machines: bounded by machines.
	if got := ParallelReadSeconds(1000, 4, 100, 10); got != 25 {
		t.Errorf("chunk surplus: %v, want 25", got)
	}
	if got := ParallelReadSeconds(0, 4, 4, 10); got != 0 {
		t.Errorf("empty file: %v, want 0", got)
	}
}

func TestWriteSeconds(t *testing.T) {
	// 300 bytes over 3 machines: 100 B each, 3x replication disk,
	// 2x over network.
	got := WriteSeconds(300, 3, 100, 200)
	want := 100*3/100.0 + 100*2/200.0
	if got != want {
		t.Errorf("WriteSeconds = %v, want %v", got, want)
	}
	if WriteSeconds(0, 3, 100, 200) != 0 {
		t.Error("empty write should cost 0")
	}
}
