module starts/bench

go 1.22

require starts v0.0.0

replace starts => ../
