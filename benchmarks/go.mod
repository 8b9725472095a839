module graphbench/benchmarks

go 1.24.0

require graphbench v0.0.0

replace graphbench => ../
