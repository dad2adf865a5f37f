module itmap/benchmark

go 1.22

require itmap v0.0.0

replace itmap => ../
