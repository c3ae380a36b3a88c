module graphsig/bench

go 1.22

require graphsig v0.0.0

replace graphsig => ../
