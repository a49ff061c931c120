module rsse/benchmark

go 1.24

require rsse v0.0.0

replace rsse => ../
