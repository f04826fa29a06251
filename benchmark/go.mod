module ppar/benchmark

go 1.23

require ppar v0.0.0

replace ppar => ../
