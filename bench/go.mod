module dlfs/bench

go 1.22

require dlfs v0.0.0

replace dlfs => ../
