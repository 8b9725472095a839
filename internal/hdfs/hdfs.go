// Package hdfs simulates the distributed file system every system in
// the paper (except Vertica) reads inputs from and writes results to.
//
// It is a catalogue, not a store: a file is a name, a modeled
// paper-scale size used for I/O cost accounting and for the block count
// that drives GraphX's default partition number (Table 5: #partitions
// defaults to #blocks; the HDFS block size is 64 MB), and a chunk
// count. Engines compute on the prepared graph (engine.Dataset.Graph)
// and charge their load phase from these entries; the package also
// holds the read and write cost formulas. The paper pre-partitions
// datasets into similar-size chunks because the C++ HDFS client used by
// Blogel and GraphLab spawns one reader thread per chunk — a single
// chunk serializes the entire load onto the master (§4.3).
package hdfs

import "fmt"

// BlockSize is the HDFS default block size used in the paper (64 MB).
const BlockSize = 64 << 20

// ReplicationFactor is HDFS's default write replication.
const ReplicationFactor = 3

// EdgeFormatBytesPerEdge is the average on-disk bytes per edge of the
// paper's edge-format files (two ~9-digit ids, a space, a newline),
// fitted to Table 5's block counts.
const EdgeFormatBytesPerEdge = 21

// File is a catalogue entry.
type File struct {
	Name       string
	PaperBytes int64 // modeled on-disk size at paper scale
	Chunks     int   // number of similar-size chunks the file is split into
}

// Blocks returns the number of HDFS blocks the file occupies at paper
// scale — the quantity GraphX uses as its default partition count.
func (f *File) Blocks() int {
	if f.PaperBytes <= 0 {
		return 1
	}
	b := int((f.PaperBytes + BlockSize - 1) / BlockSize)
	if b < 1 {
		b = 1
	}
	return b
}

// FS is a simulated HDFS namespace.
type FS struct {
	files map[string]*File
}

// New returns an empty file system.
func New() *FS { return &FS{files: make(map[string]*File)} }

// Create registers a file, replacing any previous file of the same name.
func (fs *FS) Create(name string, paperBytes int64, chunks int) *File {
	if chunks < 1 {
		chunks = 1
	}
	f := &File{Name: name, PaperBytes: paperBytes, Chunks: chunks}
	fs.files[name] = f
	return f
}

// Open returns the named file.
func (fs *FS) Open(name string) (*File, error) {
	f, ok := fs.files[name]
	if !ok {
		return nil, fmt.Errorf("hdfs: file %q does not exist", name)
	}
	return f, nil
}

// ParallelReadSeconds models the time for a cluster of m machines to
// read a file of paperBytes split into `chunks` chunks, with one reader
// stream per chunk: effective parallelism is min(chunks, m). A
// single-chunk file serializes the whole read through one machine —
// the Blogel/GraphLab loading pathology the paper works around by
// pre-partitioning inputs (§4.3).
func ParallelReadSeconds(paperBytes int64, m, chunks int, diskBW float64) float64 {
	if paperBytes <= 0 || diskBW <= 0 {
		return 0
	}
	par := chunks
	if m < par {
		par = m
	}
	if par < 1 {
		par = 1
	}
	return float64(paperBytes) / diskBW / float64(par)
}

// WriteSeconds models an HDFS write of paperBytes spread over m
// machines, including the replication pipeline (each byte is written
// ReplicationFactor times, two of them across the network).
func WriteSeconds(paperBytes int64, m int, diskBW, netBW float64) float64 {
	if paperBytes <= 0 || m < 1 {
		return 0
	}
	per := float64(paperBytes) / float64(m)
	disk := per * ReplicationFactor / diskBW
	net := per * (ReplicationFactor - 1) / netBW
	return disk + net
}
